package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// TestFig17Dynamics checks that every Fig 17 counter is the Result total it
// names, and that a flight recorder attached to the same runs agrees with
// those totals: with a ring large enough to hold the whole tiny run, its
// queue-assignment and PFC-pause events count exactly what the devices did.
// The tiny incast never fills the default buffer, so a third DCQCN run on a
// 200 KB buffer gives the PFC comparison pauses to count.
func TestFig17Dynamics(t *testing.T) {
	jobs := Fig17Jobs(Tiny(), []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
	squeezed := Fig17Jobs(Tiny(), []sim.Scheme{sim.SchemeDCQCN})[0]
	squeezed.Name += "/buffer=200KB"
	squeezed.Options = append(squeezed.Options, func(o *sim.Options) { o.SwitchBuffer = 200 * units.KB })
	jobs = append(jobs, squeezed)
	rings := harness.AttachRings(jobs, fig17RingCapacity)
	recs := runJobs(t, jobs)
	rows := Fig17FromRecords(recs)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[2].PFCPauses == 0 {
		t.Fatalf("the 200 KB DCQCN run sent no PFC pauses: %+v", rows[2])
	}
	for i, r := range rows {
		res := recs[i].Result
		if r.PFCPauses != res.PFCPauses || r.BFCPauses != res.Pauses ||
			r.QueueAssignments != res.Assignments || r.Drops != res.Drops {
			t.Errorf("%s: row counters %+v, Result has PFCPauses=%d Pauses=%d Assignments=%d Drops=%d",
				r.Scheme, r, res.PFCPauses, res.Pauses, res.Assignments, res.Drops)
		}
		if r.Series == nil || len(r.Series.Series) == 0 {
			t.Fatalf("%s: no sampled series", r.Scheme)
		}
		if r.PeakBuffer <= 0 {
			t.Errorf("%s: peak buffer occupancy not observed", r.Scheme)
		}
		if r.Scheme == "BFC" && r.QueueAssignments == 0 {
			t.Errorf("BFC run made no queue assignments")
		}
		tl := Fig17Timeline(r, 8)
		if len(tl) != 8 {
			t.Fatalf("%s: timeline has %d points, want 8", r.Scheme, len(tl))
		}

		ring := rings[i]
		if ring.Seen() == 0 || ring.Overwritten() != 0 {
			t.Fatalf("%s: ring saw %d events and lost %d; the test needs all of them", r.Scheme, ring.Seen(), ring.Overwritten())
		}
		events := ring.Events()
		var assigns, pfcPauses uint64
		for _, ev := range events {
			switch ev.Kind {
			case telemetry.KindQueueAssign:
				assigns++
			case telemetry.KindPFCPause:
				pfcPauses++
			}
		}
		if assigns != r.QueueAssignments || pfcPauses != r.PFCPauses {
			t.Errorf("%s: trace holds %d queue assignments and %d PFC pauses, the counters %d and %d",
				r.Scheme, assigns, pfcPauses, r.QueueAssignments, r.PFCPauses)
		}

		// The exported Chrome trace must be valid JSON with the expected shape.
		topo := jobs[i].Topology()
		cfg := telemetry.TraceConfig{
			RunName:  jobs[i].Name,
			NodeName: func(n packet.NodeID) string { return topo.Node(n).Name },
		}
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, cfg, events); err != nil {
			t.Fatalf("%s: trace export: %v", r.Scheme, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace not parseable: %v", r.Scheme, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("%s: empty trace", r.Scheme)
		}
	}
}
