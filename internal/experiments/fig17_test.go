package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
)

func TestFig17Dynamics(t *testing.T) {
	jobs := Fig17Jobs(Tiny(), []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
	// Swap in rings the test can read back, the way bfcsim
	// -trace-dir does; the jobs' counts then come from these rings.
	rings := harness.AttachRings(jobs, fig17RingCapacity)
	rows := Fig17FromRecords(harness.MustRun(jobs))
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for i, r := range rows {
		events := rings[i].Events()
		if r.Series == nil || len(r.Series.Series) == 0 {
			t.Fatalf("%s: no sampled series", r.Scheme)
		}
		if r.EventsSeen == 0 || len(events) == 0 {
			t.Fatalf("%s: no recorded events", r.Scheme)
		}
		if r.EventsSeen != rings[i].Seen() {
			t.Fatalf("%s: row counts %d events, the ring saw %d", r.Scheme, r.EventsSeen, rings[i].Seen())
		}
		if r.PeakBuffer <= 0 {
			t.Errorf("%s: peak buffer occupancy not observed", r.Scheme)
		}
		if r.Scheme == "BFC" && r.QueueAssignments == 0 {
			t.Errorf("BFC run recorded no queue assignments")
		}
		tl := Fig17Timeline(r, 8)
		if len(tl) != 8 {
			t.Fatalf("%s: timeline has %d points, want 8", r.Scheme, len(tl))
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

// TestFig17CountsWithoutSwappedRing pins that the jobs carry their own ring:
// run as compiled, the records still hold the flight-recorder counts.
func TestFig17CountsWithoutSwappedRing(t *testing.T) {
	rows := Fig17FromRecords(harness.MustRun(Fig17Jobs(Tiny(), []sim.Scheme{sim.SchemeBFC})))
	if rows[0].EventsSeen == 0 || rows[0].QueueAssignments == 0 {
		t.Fatalf("BFC row has no flight-recorder counts: %+v", rows[0])
	}
}
