package sim

import (
	"testing"

	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// TestFatTreeScaleRun is the scale-tier acceptance test: a 1024-host
// three-tier fat-tree run completes with streaming statistics enabled, the
// stats footprint stays bounded by the sketch capacity (independent of flow
// and sample count), and the scaled sampling cadence kicks in.
func TestFatTreeScaleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fat-tree run skipped in -short mode")
	}
	cfg := topology.FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond)
	topo := topology.NewFatTree(cfg)
	if got := len(topo.Hosts()); got != 1024 {
		t.Fatalf("fat-tree has %d hosts, want 1024", got)
	}

	const sketchSize = 512
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 20 * units.Microsecond
	// Long enough for the scaled sampling cadence (90 us on 264 switches) to
	// tick at least once within the horizon.
	opts.Drain = 170 * units.Microsecond
	opts.StreamingStats = true
	opts.StatsSketchSize = sketchSize

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
	if !res.BufferOccupancy.Streaming() {
		t.Fatal("buffer occupancy distribution is not in streaming mode")
	}
	if got := res.BufferOccupancy.StoredSamples(); got > sketchSize {
		t.Fatalf("buffer occupancy holds %d samples, cap %d", got, sketchSize)
	}
	if got := res.OccupiedQueues.StoredSamples(); got > sketchSize {
		t.Fatalf("occupied queues holds %d samples, cap %d", got, sketchSize)
	}
	// The FCT collector's footprint is bounded by (buckets+1) x sketch.
	buckets := len(stats.DefaultSizeBuckets())
	if got := res.FCT.StoredSamples(); got > (buckets+1)*sketchSize {
		t.Fatalf("FCT collector holds %d samples, cap %d", got, (buckets+1)*sketchSize)
	}
	// Queries still answer sensibly.
	if p99 := res.FCT.OverallPercentile(99); p99 < 1 {
		t.Fatalf("p99 slowdown = %v, want >= 1", p99)
	}
	if res.BufferOccupancy.Count() == 0 {
		t.Fatal("no buffer samples collected")
	}
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
	opts.StatsSketchSize = 64
	opts.Scenario = goldenScenarios()["link-flap"]
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario == nil || len(res.Scenario.Phases) == 0 {
		t.Fatal("no scenario phases recorded")
	}
	buckets := len(stats.DefaultSizeBuckets())
	for _, ph := range res.Scenario.Phases {
		if !ph.FCT.Streaming() {
			t.Fatalf("phase %q collector is not streaming", ph.Name)
		}
		if got := ph.FCT.StoredSamples(); got > (buckets+1)*64 {
			t.Fatalf("phase %q holds %d samples, cap %d", ph.Name, got, (buckets+1)*64)
		}
	}
}
