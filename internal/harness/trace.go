package harness

import (
	"io"
	"os"
	"path/filepath"
	"strings"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
)

// AttachRings appends to every job a mutator that records the run into a
// flight-recorder ring the caller holds, and returns the rings in job order.
// Recording is observational: the mutator leaves the job's content hash and
// its result unchanged. The rings are only read after the run, so the worker
// count cannot influence what a trace contains.
func AttachRings(jobs []Job, capacity int) []*telemetry.Ring {
	rings := make([]*telemetry.Ring, len(jobs))
	for i := range jobs {
		ring := telemetry.NewRing(capacity)
		rings[i] = ring
		jobs[i].Options = append(jobs[i].Options, func(o *sim.Options) { o.Recorder = ring })
	}
	return rings
}

// WriteTraces exports the rings of one scheme grid: per job,
// <dir>/<scheme>.trace.json (Chrome trace_event, Perfetto-loadable) and
// <dir>/<scheme>.events.jsonl, '+' in a scheme name written as '_'. A job
// whose record came from a store was not simulated, left its ring empty and
// is skipped; the number of jobs exported is returned.
func WriteTraces(dir string, jobs []Job, rings []*telemetry.Ring) (written int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for i, ring := range rings {
		if ring.Seen() == 0 {
			continue
		}
		topo := jobs[i].Topology()
		cfg := telemetry.TraceConfig{
			RunName:  jobs[i].Name,
			NodeName: func(n packet.NodeID) string { return topo.Node(n).Name },
		}
		events := ring.Events()
		base := filepath.Join(dir, strings.ReplaceAll(jobs[i].Scheme.String(), "+", "_"))
		err := writeFile(base+".trace.json", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, cfg, events) })
		if err == nil {
			err = writeFile(base+".events.jsonl", func(w io.Writer) error { return telemetry.WriteJSONL(w, events) })
		}
		if err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
