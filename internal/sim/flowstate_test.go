package sim

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/telemetry/execstats"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// k4FatTree is the 16-host fat-tree the flow-state tests run on; it splits
// into two shards.
func k4FatTree() *topology.Topology {
	return topology.NewFatTree(topology.FatTreeConfig{
		Pods: 4, EdgePerPod: 2, AggPerPod: 2, HostsPerEdge: 2, CorePerAgg: 2,
		LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
}

// TestRepeatedFlowIDsFail: a flow ID names one flow, so a run given two flows
// with one ID is refused — whether they leave one host or two.
func TestRepeatedFlowIDsFail(t *testing.T) {
	cfg := topology.T2Config()
	cfg.NumToR, cfg.NumSpine, cfg.HostsPerToR = 2, 2, 8
	topo := topology.NewClos(cfg)
	h := topo.Hosts()
	for _, tc := range []struct {
		name       string
		srcA, srcB packet.NodeID
	}{
		{"two sources", h[1], h[2]},
		{"one source", h[1], h[1]},
	} {
		flows := []*packet.Flow{
			{ID: 5, Src: tc.srcA, Dst: h[0], SrcPort: 1000, DstPort: 4791, Size: 20 * units.KB},
			{ID: 6, Src: h[3], Dst: h[4], SrcPort: 1001, DstPort: 4791, Size: 20 * units.KB},
			{ID: 5, Src: tc.srcB, Dst: h[0], SrcPort: 1002, DstPort: 4791, Size: 20 * units.KB},
		}
		opts := DefaultOptions(SchemeBFC, topo)
		opts.Duration = 50 * units.Microsecond
		opts.Drain = 200 * units.Microsecond
		res, err := Run(opts, flows)
		if err == nil {
			t.Errorf("%s: two flows with ID 5 ran (completed %d/%d)", tc.name, res.FlowsCompleted, res.FlowsTotal)
		} else if !strings.Contains(err.Error(), "flow ID 5") {
			t.Errorf("%s: error %q does not name flow ID 5", tc.name, err)
		}
	}
}

// TestRenumberedFlowIDs pins that a flow ID only names its flow: renumbering
// every ID by a strictly increasing map (which keeps the order the causal
// tags compare in) leaves every FCT and the whole result unchanged, at one
// shard and at two, with scenario flows injected after the base trace.
func TestRenumberedFlowIDs(t *testing.T) {
	topo := k4FatTree()
	tr, err := workload.Generate(workload.Config{
		Hosts: topo.Hosts(), CDF: workload.Google(), Load: 0.6, HostRate: 100 * units.Gbps,
		Duration: 100 * units.Microsecond, Seed: 5,
		Incast: workload.IncastConfig{Enabled: true, FanIn: 8, AggregateSize: units.MB, LoadFraction: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := &scenario.Spec{Name: "renumber", Seed: 2, Events: []scenario.Event{
		{At: 30 * units.Microsecond, Kind: scenario.Incast,
			Incast: &scenario.IncastSpec{FanIn: 6, AggregateSize: 600 * units.KB}},
	}}
	run := func(sc Scheme, shards int, id func(packet.FlowID) packet.FlowID) ([]units.Time, string) {
		flows := make([]*packet.Flow, len(tr.Flows))
		for i, f := range tr.Flows {
			c := *f
			c.ID = id(f.ID)
			flows[i] = &c
		}
		opts := DefaultOptions(sc, topo)
		opts.Duration = 100 * units.Microsecond
		opts.Drain = units.Millisecond
		opts.Seed = 5
		opts.Shards = shards
		opts.Scenario = spec
		res, err := Run(opts, flows)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sharding.Used != shards {
			t.Fatalf("asked for %d shards, ran on %d (%s)", shards, res.Sharding.Used, res.Sharding.Fallback)
		}
		if res.Scenario.InjectedFlows == 0 {
			t.Fatal("the scenario injected no flows")
		}
		digest, err := ResultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		fcts := make([]units.Time, len(flows))
		for i, f := range flows {
			fcts[i] = f.FCT()
		}
		return fcts, digest
	}
	same := func(id packet.FlowID) packet.FlowID { return id }
	spread := func(id packet.FlowID) packet.FlowID { return id<<32 + 7 }
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
		for _, shards := range []int{1, 2} {
			want, wantDigest := run(sc, shards, same)
			got, gotDigest := run(sc, shards, spread)
			if i := slices.IndexFunc(want, func(fct units.Time) bool { return fct == 0 }); i >= 0 {
				t.Errorf("%s shards=%d: %v did not finish", sc, shards, tr.Flows[i])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s shards=%d: %v: FCT %v, %v after renumbering", sc, shards, tr.Flows[i], want[i], got[i])
					break
				}
			}
			if gotDigest != wantDigest {
				t.Errorf("%s shards=%d: result digest %.12s, %.12s after renumbering", sc, shards, wantDigest, gotDigest)
			}
		}
	}
}

// spreadFlows returns count 8 KB flows over the fabric's hosts, one starting
// every microsecond.
func spreadFlows(topo *topology.Topology, count int) []*packet.Flow {
	hosts := topo.Hosts()
	flows := make([]*packet.Flow, count)
	for i := range flows {
		flows[i] = &packet.Flow{
			ID: packet.FlowID(i + 1), Src: hosts[i%len(hosts)], Dst: hosts[(i*7+3)%len(hosts)],
			SrcPort: uint16(1000 + i), DstPort: 4791,
			Size: 8 * units.KB, StartTime: units.Time(i) * units.Microsecond,
		}
		if flows[i].Src == flows[i].Dst {
			flows[i].Dst = hosts[(i+1)%len(hosts)]
		}
	}
	return flows
}

// TestFlowAllocs holds per-flow state to the shard's slabs: once they exist,
// starting, running and completing a flow allocates no object of its own,
// under every scheme. Two runs of one fabric, one with n flows and one with
// 4n (the same spacing, so as many in flight at a time), differ only by what
// the extra 3n flows allocate; the event arena's pages, the packet pool's
// pages and the completion buffers' growth stay well under a tenth of an
// object per flow. A sender record, its timer closure and a receiver record
// per flow, a congestion controller per flow, or a map entry keyed by flow
// ID, exceed the budget many times over.
func TestFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n, perFlow = 250, 0.1
	topo := k4FatTree()
	mallocs := func(scheme Scheme, shards, count int) uint64 {
		opts := DefaultOptions(scheme, topo)
		opts.Duration = 4 * n * units.Microsecond
		opts.Drain = 200 * units.Microsecond
		opts.Shards = shards
		flows := spreadFlows(topo, count)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(opts, flows)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.FlowsCompleted != count {
			t.Fatalf("%s shards=%d: completed %d of %d flows", scheme, shards, res.FlowsCompleted, count)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCN, SchemeDCQCNWin, SchemeHPCC, SchemeIdealFQ} {
		for _, shards := range []int{1, 2} {
			small, large := mallocs(scheme, shards, n), mallocs(scheme, shards, 4*n)
			extra := float64(large) - float64(small)
			t.Logf("%s shards=%d: %d objects for %d flows, %d for %d: %.3f per extra flow (budget %v)",
				scheme, shards, small, n, large, 4*n, extra/(3*n), perFlow)
			if extra > perFlow*3*n {
				t.Errorf("%s shards=%d: %d more flows allocated %.0f more objects, budget %.0f", scheme, shards, 3*n, extra, perFlow*3*n)
			}
		}
	}
}

// TestPoolReturnsEveryPacket is the pool term of the run invariants: a run
// whose flows all complete hands every packet back, so summed over the
// shards' pools (a packet may end in another shard's free-list) the packets
// carved equal the packets free. The k = 4 fat-tree's spread flows pause
// nothing; the T2 incast, drained, pauses and resumes flows under BFC, so
// packets wait in paused queues before they come back.
func TestPoolReturnsEveryPacket(t *testing.T) {
	check := func(name string, scheme Scheme, shards int, res *Result, flows int) {
		t.Helper()
		if res.FlowsCompleted != flows || res.Sharding.Used != shards {
			t.Fatalf("%s %s shards=%d: completed %d of %d flows on %d shards", name, scheme, shards, res.FlowsCompleted, flows, res.Sharding.Used)
		}
		var allocated, free uint64
		for _, ss := range res.Exec.Shards {
			allocated += ss.PoolAllocated
			free += uint64(ss.PoolFree)
		}
		if allocated == 0 || allocated != free {
			t.Errorf("%s %s shards=%d: %d packets carved, %d free at the end: %d never returned",
				name, scheme, shards, allocated, free, int64(allocated)-int64(free))
		}
	}
	topo := k4FatTree()
	for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCN} {
		for _, shards := range []int{1, 2} {
			opts := DefaultOptions(scheme, topo)
			opts.Duration = 200 * units.Microsecond
			opts.Drain = 200 * units.Microsecond
			opts.Shards = shards
			flows := spreadFlows(topo, 200)
			res, err := Run(opts, flows)
			if err != nil {
				t.Fatal(err)
			}
			check("k4-spread", scheme, shards, res, len(flows))
		}
	}
	topoT2, incast, _ := t2IncastFlap(t)
	for _, shards := range []int{1, 2} {
		res := runT2Incast(t, topoT2, incast, shards, nil, 2*units.Millisecond)
		t.Logf("t2-incast-drained shards=%d: %d pauses, %d resumes", shards, res.Pauses, res.Resumes)
		if res.Pauses == 0 {
			t.Errorf("t2-incast-drained shards=%d paused no flow: the pool term checks no paused queue", shards)
		}
		check("t2-incast-drained", SchemeBFC, shards, res, len(incast))
	}
}

// TestPoolReturnsEveryFilter drives the filter term of the run's books
// (books.balance: every BFC pause filter the shards' pools carved is free,
// installed in an upstream state or in a frame on a link, summed over the
// shards) through runs that leave filters in all three places. A receiver
// that dropped the filter a new frame displaced, or a lost frame whose
// filter nobody put back, fails Run itself. Each run ends in the middle of
// its incast. The flap cuts a spine-ToR link whose ends sit on two shards
// while pause frames cross it, so frames are lost on it and filters change
// shards both ways.
func TestPoolReturnsEveryFilter(t *testing.T) {
	topo, flows, flap := t2IncastFlap(t)
	cases := []struct {
		name   string
		shards int
		spec   *scenario.Spec
	}{
		{"t2-incast", 1, nil},
		{"t2-incast", 2, nil},
		{"t2-incast-cross-shard-flap", 2, flap},
	}
	var held, inFlight int
	for _, c := range cases {
		res := runT2Incast(t, topo, flows, c.shards, c.spec, 20*units.Microsecond)
		var carved uint64
		var free, h, f int
		for _, ss := range res.Exec.Shards {
			carved += ss.FiltersCarved
			free += ss.FiltersFree
			h += ss.FiltersHeld
			f += ss.FiltersInFlight
		}
		held, inFlight = held+h, inFlight+f
		t.Logf("%s shards=%d: %d filters carved, %d free, %d installed, %d in flight", c.name, c.shards, carved, free, h, f)
		if carved == 0 {
			t.Errorf("%s shards=%d carved no pause filter: the filter term checks nothing", c.name, c.shards)
		}
	}
	if held == 0 || inFlight == 0 {
		t.Errorf("no run ended with a filter installed (%d) or in flight (%d): the run's check no longer covers those terms", held, inFlight)
	}
}

// t2IncastFlap returns the inputs of TestPoolReturnsEveryFilter: T2 with 60 µs
// of Google traffic at load 0.6 plus incast (seed 7), and a flap of the
// spine2-tor3 link, whose ends sit on the two shards of T2, down at 20 µs and
// up at 50 µs. Pause frames cross that link while it is down, so some are
// lost and their filters change shards.
func t2IncastFlap(t *testing.T) (*topology.Topology, []*packet.Flow, *scenario.Spec) {
	t.Helper()
	topo := topology.NewT2()
	tr, err := workload.Generate(workload.Config{
		Hosts: topo.Hosts(), CDF: workload.Google(), Load: 0.6, HostRate: topo.HostRate(topo.Hosts()[0]),
		Duration: 60 * units.Microsecond, Seed: 7,
		Incast: workload.IncastConfig{Enabled: true, FanIn: 30, AggregateSize: 4 * units.MB, LoadFraction: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := &scenario.LinkRef{A: "spine2", B: "tor3"}
	a, okA := topo.NodeByName(link.A)
	b, okB := topo.NodeByName(link.B)
	if plan := topology.PlanShards(topo, 2); !okA || !okB || plan.Assign[a] == plan.Assign[b] {
		t.Fatalf("%s-%s is not a link across the two shards of T2", link.A, link.B)
	}
	return topo, tr.Flows, &scenario.Spec{Name: "cross-shard-flap", Events: []scenario.Event{
		{At: 20 * units.Microsecond, Kind: scenario.LinkDown, Link: link},
		{At: 50 * units.Microsecond, Kind: scenario.LinkUp, Link: link},
	}}
}

// runT2Incast runs BFC over t2IncastFlap's inputs for 60 µs plus drain, with
// spec (nil: no flap). A drain of 20 µs ends the run in the middle of its
// incast; one of 2 ms completes every flow.
func runT2Incast(t *testing.T, topo *topology.Topology, flows []*packet.Flow, shards int, spec *scenario.Spec, drain units.Time) *Result {
	t.Helper()
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 60 * units.Microsecond
	opts.Drain = drain
	opts.Shards = shards
	opts.Scenario = spec
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharding.Used != shards {
		t.Fatalf("shards=%d: ran on %d shards", shards, res.Sharding.Used)
	}
	return res
}

// TestSwitchesBalanceTheirBooks drives the switch and flow-table term of the
// run's books (switchsim.(*Switch).Audit, which Run checks on every switch)
// and wants a run whose flows all complete to end with nothing queued, no
// flow-table entry and no VFID paused, summed over the shards; the T2
// incast, drained, pauses and resumes flows. The cross-shard flap of
// TestPoolReturnsEveryFilter ends mid-incast, so there switches still hold
// packets, entries and paused VFIDs whose books Run checked.
func TestSwitchesBalanceTheirBooks(t *testing.T) {
	sum := func(res *Result) (queued int, bytes int64, entries, paused int) {
		for _, ss := range res.Exec.Shards {
			queued, bytes = queued+ss.QueuedPackets, bytes+ss.QueuedBytes
			entries, paused = entries+ss.FlowEntries, paused+ss.PausedVFIDs
		}
		return
	}
	k4 := k4FatTree()
	topoT2, incast, flap := t2IncastFlap(t)
	var pauses uint64
	for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCN} {
		for _, shards := range []int{1, 2} {
			for _, c := range []struct {
				name  string
				topo  *topology.Topology
				flows []*packet.Flow
				drain units.Time
			}{
				{"k4-spread", k4, spreadFlows(k4, 200), 200 * units.Microsecond},
				{"t2-incast-drained", topoT2, incast, 2 * units.Millisecond},
			} {
				opts := DefaultOptions(scheme, c.topo)
				opts.Duration = 200 * units.Microsecond
				opts.Drain = c.drain
				opts.Shards = shards
				res, err := Run(opts, c.flows)
				if err != nil {
					t.Fatal(err)
				}
				if res.FlowsCompleted != len(c.flows) || res.Sharding.Used != shards {
					t.Fatalf("%s %s shards=%d: completed %d of %d flows on %d shards", c.name, scheme, shards, res.FlowsCompleted, len(c.flows), res.Sharding.Used)
				}
				if queued, bytes, entries, paused := sum(res); queued != 0 || bytes != 0 || entries != 0 || paused != 0 {
					t.Errorf("%s %s shards=%d: every flow completed, but switches hold %d packets (%d B), %d flow-table entries and %d paused VFIDs",
						c.name, scheme, shards, queued, bytes, entries, paused)
				}
				pauses += res.Pauses
			}
		}
	}
	if pauses == 0 {
		t.Error("no drained run paused a flow: the paused-VFID term checks nothing")
	}
	res := runT2Incast(t, topoT2, incast, 2, flap, 20*units.Microsecond)
	queued, bytes, entries, paused := sum(res)
	t.Logf("t2-incast-cross-shard-flap shards=2: switches hold %d packets (%d B), %d flow-table entries, %d paused VFIDs", queued, bytes, entries, paused)
	if queued == 0 || entries == 0 || paused == 0 {
		t.Errorf("the flap run ended with %d packets queued, %d entries and %d VFIDs paused: it no longer checks a loaded switch", queued, entries, paused)
	}
}

// TestBufferAndLosslessTerms drives the buffer term of the run's books and
// holds the lossless one, on the drained T2 incast, whose 30-way fan-in fills
// a small shared buffer: with PFC on, a 200 KB switch pauses its upstreams,
// drops nothing and every flow completes; with PFC off, a 100 KB switch
// drops. In both, Run checks that no switch ever held more than its buffer
// (each switch's own high-water mark, not the sampled
// Result.MaxBufferOccupancy). At 100 KB PFC on is not lossless: it pauses at
// a fraction of the free buffer and reserves no headroom for what is in
// flight behind the pause.
func TestBufferAndLosslessTerms(t *testing.T) {
	topo, incast, _ := t2IncastFlap(t)
	run := func(scheme Scheme, buffer units.Bytes, pfc bool) *Result {
		opts := DefaultOptions(scheme, topo)
		opts.Duration = 200 * units.Microsecond
		opts.Drain = 2 * units.Millisecond
		opts.SwitchBuffer = buffer
		opts.DisablePFC = !pfc
		res, err := Run(opts, incast)
		if err != nil {
			t.Fatalf("%v buffer=%v pfc=%v: %v", scheme, buffer, pfc, err)
		}
		var peak int64
		for _, ss := range res.Exec.Shards {
			peak = max(peak, ss.BufferPeak)
		}
		t.Logf("%v buffer=%v pfc=%v: %d PFC pauses, %d drops, peak %d B (sampled %d B), %d of %d flows completed",
			scheme, buffer, pfc, res.PFCPauses, res.Drops, peak, res.MaxBufferOccupancy, res.FlowsCompleted, len(incast))
		return res
	}
	for _, scheme := range []Scheme{SchemeBFC, SchemeBFCStatic, SchemeDCQCN, SchemeDCQCNWin, SchemeDCQCNWinSFQ, SchemeHPCC} {
		if res := run(scheme, 200*units.KB, true); res.PFCPauses == 0 || res.Drops != 0 || res.FlowsCompleted != len(incast) {
			t.Errorf("%v with PFC at 200 KB: %d PFC pauses, %d drops, %d of %d flows completed; want some pauses, no drop and every flow",
				scheme, res.PFCPauses, res.Drops, res.FlowsCompleted, len(incast))
		}
		if res := run(scheme, 100*units.KB, false); res.Drops == 0 {
			t.Errorf("%v without PFC at 100 KB dropped nothing: the buffer bound is not reached", scheme)
		}
	}
}

// TestBooksNameTheTermThatDoesNotBalance feeds books.balance per-shard sums
// that balance, then unbalances one term at a time and wants the error that
// names it.
func TestBooksNameTheTermThatDoesNotBalance(t *testing.T) {
	want := books{started: 10, completed: 7, buffer: 100 * units.KB}
	balanced := func() []execstats.ShardStats {
		return []execstats.ShardStats{
			{FiltersCarved: 5, FiltersFree: 2, FiltersHeld: 1, FlowsStarted: 6, FlowsCompleted: 3, BufferPeak: 90_000},
			{FiltersCarved: 1, FiltersHeld: 1, FiltersInFlight: 2, FlowsStarted: 4, FlowsCompleted: 4, BufferPeak: 100_000},
		}
	}
	if err := want.balance(balanced()); err != nil {
		t.Fatalf("balanced books: %v", err)
	}
	for _, c := range []struct {
		term   string
		skew   func(ss []execstats.ShardStats)
		needle string
	}{
		{"a filter nobody put back", func(ss []execstats.ShardStats) { ss[1].FiltersInFlight-- }, "pause filters"},
		{"a filter put back twice", func(ss []execstats.ShardStats) { ss[0].FiltersFree++ }, "pause filters"},
		{"a flow never started", func(ss []execstats.ShardStats) { ss[0].FlowsStarted-- }, "started"},
		{"a completion never recorded", func(ss []execstats.ShardStats) { ss[1].FlowsCompleted++ }, "completed"},
		{"a buffer overrun", func(ss []execstats.ShardStats) { ss[1].BufferPeak = int64(want.buffer) + 1 }, "shared buffer"},
	} {
		ss := balanced()
		c.skew(ss)
		err := want.balance(ss)
		if err == nil || !strings.Contains(err.Error(), c.needle) {
			t.Errorf("%s: balance = %v, want an error naming %q", c.term, err, c.needle)
		}
	}
	unbounded := want
	unbounded.buffer = 0
	ss := balanced()
	ss[0].BufferPeak = 1 << 40
	if err := unbounded.balance(ss); err != nil {
		t.Errorf("an unbounded buffer has no peak to exceed: %v", err)
	}
}

// TestLongLivedAndLateFlowsBalanceTheBooks: a long-lived flow that completes
// is counted by its receiver's NIC but recorded nowhere in the Result, so the
// run's books count it apart, and a flow that would start after the horizon
// never starts, so the books do not owe it. Run must return a result.
func TestLongLivedAndLateFlowsBalanceTheBooks(t *testing.T) {
	topo := k4FatTree()
	flows := spreadFlows(topo, 3)
	flows[0].LongLived = true
	flows[2].StartTime = 10 * units.Millisecond
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration, opts.Drain = 100*units.Microsecond, 200*units.Microsecond
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatal(err)
	}
	var started, completed uint64
	for _, ss := range res.Exec.Shards {
		started, completed = started+ss.FlowsStarted, completed+ss.FlowsCompleted
	}
	if started != 2 || completed != 2 || res.FlowsCompleted != 1 {
		t.Errorf("NICs started %d and completed %d flows, the Result recorded %d; want 2, 2 and 1 (the long-lived flow apart)",
			started, completed, res.FlowsCompleted)
	}
}
