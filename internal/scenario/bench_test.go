package scenario

import (
	"testing"

	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// benchClos builds the paper-scale T1 fabric (8 ToR x 8 spine x 16 hosts):
// reroute cost scales with topology size, so the benchmark uses the largest
// built-in shape.
func benchClos() *topology.Topology {
	return topology.NewClos(topology.ClosConfig{
		NumToR: 8, NumSpine: 8, HostsPerToR: 16,
		LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
}

// linkFlapLoop is the in-run cost of one fail+recover pair — the incremental
// ECMP recomputation that runs inside the event loop when a link event fires.
// This is the scenario engine's hot path: everything else (flow generation,
// name resolution) happens at Plan time. The first failure interns its port
// sets, untimed; later ones allocate nothing, which
// TestLinkFlapSteadyStateAllocFree holds the same loop to.
func linkFlapLoop() func(n int) {
	topo := benchClos()
	a, _ := topo.NodeByName("tor0")
	s, _ := topo.NodeByName("spine0")
	loop := func(n int) {
		for i := 0; i < n; i++ {
			topo.SetLinkState(a, s, false)
			topo.SetLinkState(a, s, true)
		}
	}
	loop(1)
	return loop
}

func BenchmarkLinkFlapReroute(b *testing.B) {
	loop := linkFlapLoop()
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}

func TestLinkFlapSteadyStateAllocFree(t *testing.T) {
	loop := linkFlapLoop()
	if allocs := testing.AllocsPerRun(1, func() { loop(4) }); allocs != 0 {
		t.Fatalf("%v allocations in 4 fail+recover pairs, want 0", allocs)
	}
}

// BenchmarkSpecInstall measures compiling and installing a representative
// 4-event spec (flap + incast + shift) against the paper-scale fabric — the
// injected flows scheduled, the event instants listed for the coordinator's
// barriers: the per-run setup cost a scenario adds before the event loop
// starts.
func BenchmarkSpecInstall(b *testing.B) {
	topo := benchClos()
	spec := &Spec{
		Name: "bench",
		Seed: 1,
		Events: []Event{
			{At: 10 * units.Microsecond, Kind: LinkDown, Link: &LinkRef{A: "tor0", B: "spine0"}},
			{At: 20 * units.Microsecond, Kind: Incast,
				Incast: &IncastSpec{FanIn: 100, AggregateSize: 2 * units.MB}},
			{At: 30 * units.Microsecond, Kind: LinkUp, Link: &LinkRef{A: "tor0", B: "spine0"}},
			{At: 40 * units.Microsecond, Kind: WorkloadShift,
				Shift: &ShiftSpec{Pattern: PatternPermutation, FlowSize: 64 * units.KB}},
		},
	}
	p := Params{
		Topo:        topo,
		Hosts:       topo.Hosts(),
		HostRate:    topo.HostRate(topo.Hosts()[0]),
		Horizon:     time500us,
		FirstFlowID: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := eventsim.New()
		pl, err := Plan(spec, p)
		if err != nil {
			b.Fatal(err)
		}
		pl.ScheduleFlows(sched, func(packet.NodeID) bool { return true }, func(*packet.Flow) {})
		pl.EventTimes(p.Horizon)
	}
}

const time500us = 500 * units.Microsecond
