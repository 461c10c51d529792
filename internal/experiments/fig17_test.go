package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
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
		if kinds := seriesKinds(r.Series); len(kinds) != 3 || kinds["fabric/events_per_tick"] != 1 ||
			kinds["links/*/pause_fraction"] == 0 || kinds["switch/*/buffer_bytes"] == 0 {
			t.Errorf("%s: series kinds %v, want events_per_tick once and the pause_fraction and buffer_bytes series", r.Scheme, kinds)
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

// seriesKinds counts a bundle's series by name, the middle element of a
// three-part name replaced by "*".
func seriesKinds(rs *telemetry.RunSeries) map[string]int {
	kinds := map[string]int{}
	for _, s := range rs.Series {
		parts := strings.Split(s.Name, "/")
		if len(parts) == 3 {
			parts[1] = "*"
		}
		kinds[strings.Join(parts, "/")]++
	}
	return kinds
}

// TestFig17RendersOlderBundles: a record written when the sampler kept seven
// kinds of series (goodput, active flows, per-class utilization and per-switch
// max queue besides the three kept ones) and every series carried a start time must
// render the same Fig 17 rows and timeline as one that carries only the kept
// series. The extra series hold values above any occupancy or pause fraction,
// so a renderer that read one would print a different row.
func TestFig17RendersOlderBundles(t *testing.T) {
	recs := runJobs(t, Fig17Jobs(Tiny(), []sim.Scheme{sim.SchemeDCQCN}))
	blob, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	decode := func(blob []byte) *harness.Record {
		var rec harness.Record
		if err := json.Unmarshal(blob, &rec); err != nil {
			t.Fatal(err)
		}
		return &rec
	}
	kept := decode(blob)

	// The older bundle, in the order the older sampler built it.
	rs := kept.Result.Telemetry
	n := len(rs.Series[0].Samples)
	series := func(name string, samples []float64) map[string]any {
		return map[string]any{"name": name, "start": 0, "interval": rs.Interval, "samples": samples}
	}
	filled := func(v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	var events map[string]any
	var util, pause, switches []map[string]any
	for _, s := range rs.Series {
		switch {
		case s.Name == "fabric/events_per_tick":
			events = series(s.Name, s.Samples)
		case strings.HasSuffix(s.Name, "/pause_fraction"):
			util = append(util, series(strings.TrimSuffix(s.Name, "pause_fraction")+"utilization", filled(1.5)))
			pause = append(pause, series(s.Name, s.Samples))
		default:
			switches = append(switches, series(s.Name, s.Samples),
				series(strings.TrimSuffix(s.Name, "buffer_bytes")+"max_queue_bytes", filled(1e12)))
		}
	}
	old := []map[string]any{series("fabric/goodput_gbps", filled(1e12)), series("fabric/active_flows", filled(1e12)), events}
	old = append(append(append(old, util...), pause...), switches...)

	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	doc["result"].(map[string]any)["Telemetry"] = map[string]any{"interval": rs.Interval, "series": old}
	oldBlob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	older := decode(oldBlob)
	if got := len(older.Result.Telemetry.Series); got != len(old) {
		t.Fatalf("older bundle holds %d series, want %d", got, len(old))
	}

	a, b := Fig17FromRecords([]*harness.Record{kept})[0], Fig17FromRecords([]*harness.Record{older})[0]
	if !reflect.DeepEqual(Fig17Timeline(a, 8), Fig17Timeline(b, 8)) {
		t.Errorf("timelines differ:\n%+v\n%+v", Fig17Timeline(a, 8), Fig17Timeline(b, 8))
	}
	a.Series, b.Series = nil, nil
	if a != b {
		t.Errorf("rows differ:\n%+v\n%+v", a, b)
	}
}
