package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// TestFatTreeScaleRun is the scale-tier acceptance test: a 1024-host
// three-tier fat-tree run completes with streaming statistics enabled, every
// distribution is a sketch (whose footprint stats bounds independently of
// flow and sample count), and the scaled sampling cadence kicks in.
func TestFatTreeScaleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fat-tree run skipped in -short mode")
	}
	cfg := topology.FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond)
	topo := topology.NewFatTree(cfg)
	if got := len(topo.Hosts()); got != 1024 {
		t.Fatalf("fat-tree has %d hosts, want 1024", got)
	}

	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 20 * units.Microsecond
	// Long enough for the scaled sampling cadence (90 us on 264 switches) to
	// tick at least once within the horizon.
	opts.Drain = 170 * units.Microsecond
	opts.StreamingStats = true

	// 264 switches -> the default cadence must be stretched (9 x 10 us).
	if d := bufferSampleInterval(topo); d <= 10*units.Microsecond {
		t.Fatalf("sampling cadence not scaled for a large fabric: %v", d)
	}

	tr, err := workload.Generate(workload.Config{
		Hosts:    topo.Hosts(),
		CDF:      workload.Google(),
		Load:     0.4,
		HostRate: topo.HostRate(topo.Hosts()[0]),
		Duration: opts.Duration,
		Seed:     41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Flows) == 0 {
		t.Fatal("scale workload generated no flows")
	}

	res, err := Run(opts, tr.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsCompleted == 0 {
		t.Fatal("no flows completed on the fat-tree")
	}
	if !res.BufferOccupancy.Streaming() || !res.OccupiedQueues.Streaming() {
		t.Fatal("an occupancy distribution is not in streaming mode")
	}
	for name, c := range map[string]*stats.FCTCollector{"FCT": res.FCT, "FCTIncast": res.FCTIncast} {
		if !streamingCollector(t, c) {
			t.Fatalf("the %s collector is not in streaming mode", name)
		}
	}
	// Queries still answer sensibly.
	if p99 := res.FCT.OverallPercentile(99); p99 < 1 {
		t.Fatalf("p99 slowdown = %v, want >= 1", p99)
	}
	if res.BufferOccupancy.Count() == 0 {
		t.Fatal("no buffer samples collected")
	}
}

// streamingCollector reports whether c's distributions are sketches: its wire
// form holds "sketch" objects, an exact collector's only sample arrays.
func streamingCollector(t *testing.T, c *stats.FCTCollector) bool {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(b, []byte(`"sketch"`))
}

// A streaming-stats run through a scenario must keep its per-phase FCT
// collectors constant-memory too — the scale tier's bound holds for fault
// injection on large fabrics.
func TestScenarioStreamingPhases(t *testing.T) {
	topo := smallClos()
	flows := goldenFlows(t, topo)
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 150 * units.Microsecond
	opts.Drain = 800 * units.Microsecond
	opts.StreamingStats = true
	opts.Scenario = goldenScenarios()["link-flap"]
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario == nil || len(res.Scenario.Phases) == 0 {
		t.Fatal("no scenario phases recorded")
	}
	for _, ph := range res.Scenario.Phases {
		if !streamingCollector(t, ph.FCT) {
			t.Fatalf("phase %q keeps an exact collector", ph.Name)
		}
	}
}
