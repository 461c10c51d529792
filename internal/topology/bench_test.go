package topology

import (
	"testing"

	"bfc/internal/units"
)

// BenchmarkFatTreeBuild1024 measures building the scale tier's largest
// standard fabric — a 1024-host, 264-switch three-tier fat-tree — including
// the full ECMP route computation (one reverse BFS per host) and the pristine
// baseline snapshot. ns/op is the fabric construction latency every
// large-scale job pays once; B/op tracks the routing-table footprint.
func BenchmarkFatTreeBuild1024(b *testing.B) {
	cfg := FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := NewFatTree(cfg)
		if len(topo.Hosts()) != 1024 {
			b.Fatalf("hosts = %d", len(topo.Hosts()))
		}
	}
}

// rerouteLoop is one fail+recover cycle of an agg-core link on the 1024-host
// fabric — the incremental reroute path scenario link events take at scale. A
// reroute allocates only when a node gets a port set it never had, so one
// untimed cycle interns the sets the failure produces and every later one
// allocates nothing (TestRerouteSteadyStateAllocFree).
func rerouteLoop(tb testing.TB) func(n int) {
	topo := NewFatTree(FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond))
	agg, core := mustNode(tb, topo, "pod0-agg0"), mustNode(tb, topo, "core0")
	loop := func(n int) {
		for i := 0; i < n; i++ {
			if topo.SetLinkState(agg, core, false) == 0 || topo.SetLinkState(agg, core, true) == 0 {
				tb.Fatal("cycle rewrote no routes")
			}
		}
	}
	loop(1)
	return loop
}

func BenchmarkFatTreeReroute1024(b *testing.B) {
	loop := rerouteLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}
