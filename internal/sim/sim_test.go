package sim

import (
	"strings"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

func starTopo(hosts int) *topology.Topology {
	return topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts:  hosts,
		LinkRate:  100 * units.Gbps,
		LinkDelay: units.Microsecond,
	})
}

func smallClos() *topology.Topology {
	cfg := topology.T2Config()
	cfg.NumToR, cfg.NumSpine, cfg.HostsPerToR = 2, 2, 4
	return topology.NewClos(cfg)
}

func oneFlow(topo *topology.Topology, size units.Bytes) []*packet.Flow {
	hosts := topo.Hosts()
	return []*packet.Flow{{
		ID: 1, Src: hosts[0], Dst: hosts[1], SrcPort: 1000, DstPort: 4791,
		Size: size, StartTime: 0,
	}}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeBFC: "BFC", SchemeBFCStatic: "BFC-VFID", SchemeDCQCN: "DCQCN",
		SchemeDCQCNWin: "DCQCN+Win", SchemeDCQCNWinSFQ: "DCQCN+Win+SFQ",
		SchemeHPCC: "HPCC", SchemeIdealFQ: "Ideal-FQ",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Scheme %d String = %q, want %q", s, s.String(), want)
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme should still format")
	}
	if len(AllSchemes()) != 6 {
		t.Error("AllSchemes should list the six Fig 5 schemes")
	}
}

func TestOptionsValidation(t *testing.T) {
	topo := starTopo(2)
	good := DefaultOptions(SchemeBFC, topo)
	if err := good.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	cases := []func(*Options){
		func(o *Options) { o.Topo = nil },
		func(o *Options) { o.MTU = 0 },
		func(o *Options) { o.NumQueues = 0 },
		func(o *Options) { o.Duration = 0 },
		func(o *Options) { o.SwitchBuffer = 0 },
		func(o *Options) { o.Drain = -1 },
	}
	for i, mutate := range cases {
		o := DefaultOptions(SchemeBFC, topo)
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// A single unobstructed flow should complete with a slowdown close to 1 under
// every scheme.
func TestSingleFlowNearIdeal(t *testing.T) {
	topo := starTopo(4)
	for _, scheme := range AllSchemes() {
		opts := DefaultOptions(scheme, topo)
		opts.Duration = 500 * units.Microsecond
		opts.Drain = 500 * units.Microsecond
		res, err := Run(opts, oneFlow(topo, 100*units.KB))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.FlowsCompleted != 1 {
			t.Fatalf("%v: flow did not complete (%d/%d)", scheme, res.FlowsCompleted, res.FlowsTotal)
		}
		slowdown := res.FCT.OverallPercentile(99)
		if slowdown > 1.6 {
			t.Errorf("%v: single-flow slowdown %.2f, want ~1", scheme, slowdown)
		}
		if res.Drops != 0 {
			t.Errorf("%v: %d drops on an idle network", scheme, res.Drops)
		}
	}
}

func TestSingleFlowAcrossClos(t *testing.T) {
	topo := smallClos()
	hosts := topo.Hosts()
	flows := []*packet.Flow{{
		ID: 1, Src: hosts[0], Dst: hosts[len(hosts)-1], SrcPort: 1000, DstPort: 4791,
		Size: 500 * units.KB, StartTime: 0,
	}}
	for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCNWin, SchemeHPCC} {
		opts := DefaultOptions(scheme, topo)
		opts.Duration = units.Millisecond
		res, err := Run(opts, flows)
		if err != nil {
			t.Fatal(err)
		}
		if res.FlowsCompleted != 1 {
			t.Fatalf("%v: cross-rack flow did not complete", scheme)
		}
		if got := res.FCT.OverallPercentile(99); got > 1.6 {
			t.Errorf("%v: cross-rack single-flow slowdown %.2f too high", scheme, got)
		}
	}
}

// Two competing long flows into the same receiver must share the bottleneck
// roughly fairly and both finish.
func TestTwoFlowsShareBottleneck(t *testing.T) {
	topo := starTopo(4)
	hosts := topo.Hosts()
	size := 500 * units.KB
	flows := []*packet.Flow{
		{ID: 1, Src: hosts[0], Dst: hosts[2], SrcPort: 1000, DstPort: 4791, Size: size},
		{ID: 2, Src: hosts[1], Dst: hosts[2], SrcPort: 1001, DstPort: 4791, Size: size},
	}
	for _, scheme := range []Scheme{SchemeBFC, SchemeIdealFQ, SchemeDCQCNWin} {
		opts := DefaultOptions(scheme, topo)
		opts.Duration = units.Millisecond
		opts.Drain = units.Millisecond
		res, err := Run(opts, flows)
		if err != nil {
			t.Fatal(err)
		}
		if res.FlowsCompleted != 2 {
			t.Fatalf("%v: %d/2 flows completed", scheme, res.FlowsCompleted)
		}
		// Two equal flows sharing a 100G bottleneck: each sees roughly a 2x
		// slowdown; allow generous scheme-dependent slack.
		p99 := res.FCT.OverallPercentile(99)
		if p99 < 1.3 || p99 > 4 {
			t.Errorf("%v: shared-bottleneck slowdown %.2f, want ~2", scheme, p99)
		}
	}
}

// BFC must actually exercise its machinery under incast: pauses happen, pause
// frames flow, and nothing is dropped.
func TestBFCIncastPausesWithoutDrops(t *testing.T) {
	topo := starTopo(17)
	hosts := topo.Hosts()
	var flows []*packet.Flow
	// 16-to-1 incast of 128 KB each, all starting at t=0.
	for i := 1; i <= 16; i++ {
		flows = append(flows, &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[i], Dst: hosts[0],
			SrcPort: uint16(1000 + i), DstPort: 4791, Size: 128 * units.KB,
		})
	}
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = units.Millisecond
	opts.Drain = units.Millisecond
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsCompleted != 16 {
		t.Fatalf("completed %d/16 incast flows", res.FlowsCompleted)
	}
	if res.Pauses == 0 {
		t.Error("BFC never paused a flow during a 16-to-1 incast")
	}
	if res.Resumes == 0 {
		t.Error("BFC never resumed a flow")
	}
	if res.BFCFrames == 0 {
		t.Error("no bloom-filter pause frames were sent")
	}
	if res.Drops != 0 {
		t.Errorf("%d drops under BFC incast (PFC backstop should prevent loss)", res.Drops)
	}
	if res.PFCPauses != 0 {
		t.Errorf("PFC triggered %d times; BFC should avoid PFC in this small incast", res.PFCPauses)
	}
	// The receiver link is the bottleneck: it should be busy most of the time
	// while the incast drains.
	if res.MaxActiveFlows < 8 {
		t.Errorf("MaxActiveFlows = %d, want >= 8", res.MaxActiveFlows)
	}
}

// DCQCN under the same incast must still deliver everything (via PFC and/or
// retransmissions), demonstrating the baselines work end to end.
func TestDCQCNIncastCompletes(t *testing.T) {
	topo := starTopo(17)
	hosts := topo.Hosts()
	var flows []*packet.Flow
	for i := 1; i <= 16; i++ {
		flows = append(flows, &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[i], Dst: hosts[0],
			SrcPort: uint16(1000 + i), DstPort: 4791, Size: 128 * units.KB,
		})
	}
	for _, scheme := range []Scheme{SchemeDCQCN, SchemeDCQCNWin, SchemeDCQCNWinSFQ, SchemeHPCC} {
		opts := DefaultOptions(scheme, topo)
		opts.Duration = units.Millisecond
		opts.Drain = 3 * units.Millisecond
		res, err := Run(opts, flows)
		if err != nil {
			t.Fatal(err)
		}
		if res.FlowsCompleted != 16 {
			t.Fatalf("%v: completed %d/16 incast flows", scheme, res.FlowsCompleted)
		}
	}
}

// Go-Back-N: with a tiny buffer and PFC disabled, drops happen but every flow
// still completes through retransmission.
func TestGoBackNRecoversFromDrops(t *testing.T) {
	topo := starTopo(9)
	hosts := topo.Hosts()
	var flows []*packet.Flow
	for i := 1; i <= 8; i++ {
		flows = append(flows, &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[i], Dst: hosts[0],
			SrcPort: uint16(2000 + i), DstPort: 4791, Size: 64 * units.KB,
		})
	}
	opts := DefaultOptions(SchemeDCQCN, topo)
	opts.SwitchBuffer = 64 * units.KB
	opts.DisablePFC = true
	opts.Duration = units.Millisecond
	opts.Drain = 20 * units.Millisecond
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("expected drops with a 64KB buffer, 8-to-1 incast and no PFC")
	}
	if res.FlowsCompleted != 8 {
		t.Fatalf("completed %d/8 flows despite Go-Back-N", res.FlowsCompleted)
	}
}

// The same seed must give byte-identical results; a different seed must not.
func TestDeterminism(t *testing.T) {
	topo := smallClos()
	tr, err := workload.Generate(workload.Config{
		Hosts:    topo.Hosts(),
		CDF:      workload.Google(),
		Load:     0.5,
		HostRate: 100 * units.Gbps,
		Duration: 200 * units.Microsecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 200 * units.Microsecond
	opts.Drain = 300 * units.Microsecond

	run := func() *Result {
		// Regenerate flows each run: Run mutates FinishTime.
		tr2, _ := workload.Generate(workload.Config{
			Hosts: topo.Hosts(), CDF: workload.Google(), Load: 0.5,
			HostRate: 100 * units.Gbps, Duration: 200 * units.Microsecond, Seed: 7,
		})
		res, err := Run(opts, tr2.Flows)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Events != b.Events || a.FlowsCompleted != b.FlowsCompleted ||
		a.FCT.OverallPercentile(99) != b.FCT.OverallPercentile(99) {
		t.Fatalf("identical seeds diverged: %d/%d events, %d/%d flows",
			a.Events, b.Events, a.FlowsCompleted, b.FlowsCompleted)
	}
	_ = tr
}

// A realistic mixed workload completes under BFC and produces sensible
// aggregate statistics.
func TestMixedWorkloadBFC(t *testing.T) {
	topo := smallClos()
	tr, err := workload.Generate(workload.Config{
		Hosts:    topo.Hosts(),
		CDF:      workload.Google(),
		Load:     0.6,
		HostRate: 100 * units.Gbps,
		Duration: 300 * units.Microsecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 300 * units.Microsecond
	opts.Drain = 2 * units.Millisecond
	res, err := Run(opts, tr.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsTotal == 0 {
		t.Fatal("no flows offered")
	}
	completed := float64(res.FlowsCompleted) / float64(res.FlowsTotal)
	if completed < 0.95 {
		t.Fatalf("only %.0f%% of flows completed", completed*100)
	}
	if res.Utilization <= 0 || res.Utilization > 1.05 {
		t.Fatalf("utilization = %v out of range", res.Utilization)
	}
	if res.FCT.OverallPercentile(50) < 1 {
		t.Fatal("median slowdown below 1")
	}
	if res.BufferOccupancy.Count() == 0 {
		t.Fatal("no buffer occupancy samples collected")
	}
	if res.Drops != 0 {
		t.Errorf("unexpected drops: %d", res.Drops)
	}
}

// BFC's collision rate must be far lower than the static straw proposal's on
// the same workload (the Fig 7 claim, at reduced scale).
func TestDynamicBeatsStaticAssignment(t *testing.T) {
	topo := starTopo(17)
	hosts := topo.Hosts()
	var flows []*packet.Flow
	for i := 1; i <= 16; i++ {
		flows = append(flows, &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[i], Dst: hosts[0],
			SrcPort: uint16(3000 + i), DstPort: 4791, Size: 32 * units.KB,
		})
	}
	runWith := func(s Scheme) *Result {
		opts := DefaultOptions(s, topo)
		opts.HighPriorityQueue = false
		opts.Duration = units.Millisecond
		opts.Drain = units.Millisecond
		// Fresh flow copies so FinishTime does not leak between runs.
		cp := make([]*packet.Flow, len(flows))
		for i, f := range flows {
			c := *f
			cp[i] = &c
		}
		res, err := Run(opts, cp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dyn := runWith(SchemeBFC)
	static := runWith(SchemeBFCStatic)
	if dyn.CollisionFraction() >= static.CollisionFraction() {
		t.Fatalf("dynamic collisions %.3f should be below static %.3f",
			dyn.CollisionFraction(), static.CollisionFraction())
	}
	if dyn.FlowsCompleted != 16 || static.FlowsCompleted != 16 {
		t.Fatal("not all flows completed")
	}
}

// PFC head-of-line blocking: with plain DCQCN and a heavy incast, PFC pauses
// should appear and be visible in the pause-time accounting.
func TestPFCPauseAccounting(t *testing.T) {
	topo := starTopo(33)
	hosts := topo.Hosts()
	var flows []*packet.Flow
	for i := 1; i <= 32; i++ {
		flows = append(flows, &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[i], Dst: hosts[0],
			SrcPort: uint16(1000 + i), DstPort: 4791, Size: 256 * units.KB,
		})
	}
	opts := DefaultOptions(SchemeDCQCN, topo)
	opts.SwitchBuffer = 2 * units.MB
	opts.Duration = units.Millisecond
	opts.Drain = 5 * units.Millisecond
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.PFCPauses == 0 {
		t.Fatal("expected PFC pauses for a 32-to-1 incast into a 2MB buffer")
	}
	total := 0.0
	for _, frac := range res.PauseTimeFraction {
		total += frac
	}
	if total <= 0 {
		t.Fatal("pause-time accounting recorded nothing despite PFC pauses")
	}
	if res.FlowsCompleted != 32 {
		t.Fatalf("completed %d/32", res.FlowsCompleted)
	}
}

// TestLinkClassPauseAndUtilization holds Result.PauseTimeFraction and the
// links/<class>/ series to the fabric's tier pairs, derived here from node
// tiers: one key per tier pair that has a link, each fraction in [0, 1], a
// class that cannot be paused present at 0, and exactly one utilization and
// one pause-fraction series per key. A cross-rack incast under DCQCN on T2
// makes PFC fire; a run with no flows reports zero utilization.
func TestLinkClassPauseAndUtilization(t *testing.T) {
	topo := topology.NewT2()
	want := map[string]bool{}
	for _, n := range topo.Nodes() {
		for _, p := range n.Ports {
			want[n.Tier.String()+"->"+topo.Node(p.Peer).Tier.String()] = true
		}
	}
	// NICs send no PFC frames, so links into a host are never paused.
	const neverPaused = "ToR->Host"
	if !want[neverPaused] {
		t.Fatalf("T2 has no %s links: %v", neverPaused, want)
	}

	hosts := topo.Hosts()
	var flows []*packet.Flow
	for i := 16; i < len(hosts); i++ { // every host off the victim's rack
		flows = append(flows, &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[i], Dst: hosts[0],
			SrcPort: uint16(1000 + i), DstPort: 4791, Size: 128 * units.KB,
		})
	}
	opts := DefaultOptions(SchemeDCQCN, topo)
	opts.SwitchBuffer = 2 * units.MB
	opts.Duration = 200 * units.Microsecond
	opts.Drain = 2 * units.Millisecond
	opts.SampleSeries = true
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.PFCPauses == 0 {
		t.Fatal("expected PFC pauses for a 48-to-1 incast into a 2 MB buffer")
	}
	if len(res.PauseTimeFraction) != len(want) {
		t.Errorf("PauseTimeFraction keys = %v, want the tier pairs %v", res.PauseTimeFraction, want)
	}
	paused := 0.0
	for key, frac := range res.PauseTimeFraction {
		if !want[key] {
			t.Errorf("PauseTimeFraction has %q, not a tier pair of the fabric", key)
		}
		if frac < 0 || frac > 1 {
			t.Errorf("PauseTimeFraction[%q] = %v, want in [0, 1]", key, frac)
		}
		paused += frac
	}
	if paused == 0 {
		t.Error("no link class paused despite PFC pauses")
	}
	if frac, ok := res.PauseTimeFraction[neverPaused]; !ok || frac != 0 {
		t.Errorf("PauseTimeFraction[%q] = %v (present %v), want present at 0", neverPaused, frac, ok)
	}
	if u, r := res.Utilization, res.ReceiverUtilization; u <= 0 || u > r || r > 1 {
		t.Errorf("Utilization %v, ReceiverUtilization %v: want 0 < all hosts <= receivers <= 1", u, r)
	}

	seen := map[string]int{}
	for _, s := range res.Telemetry.Series {
		if strings.HasPrefix(s.Name, "links/") {
			seen[s.Name]++
		}
	}
	if len(seen) != 2*len(want) {
		t.Errorf("link series %v, want one utilization and one pause_fraction per key of %v", seen, want)
	}
	for key := range want {
		for _, name := range []string{"links/" + key + "/utilization", "links/" + key + "/pause_fraction"} {
			if seen[name] != 1 {
				t.Errorf("series %q appears %d times, want once", name, seen[name])
			}
		}
		// The series and the Result read the same links: a class paused over
		// the run is paused in some tick, and one never paused in none.
		if s := res.Telemetry.Find("links/" + key + "/pause_fraction"); s != nil && (s.Max() > 0) != (res.PauseTimeFraction[key] > 0) {
			t.Errorf("%s: series max %v, run fraction %v", key, s.Max(), res.PauseTimeFraction[key])
		}
	}

	idle, err := Run(DefaultOptions(SchemeDCQCN, topology.NewT2()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if idle.Utilization != 0 || idle.ReceiverUtilization != 0 {
		t.Errorf("zero-load run: Utilization %v, ReceiverUtilization %v, want 0",
			idle.Utilization, idle.ReceiverUtilization)
	}
}
