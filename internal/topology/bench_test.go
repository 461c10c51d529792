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

// BenchmarkFatTreeReroute1024 measures one fail+recover cycle of an agg-core
// link on the 1024-host fabric — the incremental reroute path scenario link
// events take at scale. One untimed cycle interns the port sets the failure
// produces, so allocs/op reads the steady state (0) whatever b.N is.
func BenchmarkFatTreeReroute1024(b *testing.B) {
	topo := NewFatTree(FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond))
	agg, ok := topo.NodeByName("pod0-agg0")
	if !ok {
		b.Fatal("no pod0-agg0")
	}
	core, ok := topo.NodeByName("core0")
	if !ok {
		b.Fatal("no core0")
	}
	cycle := func() {
		if topo.SetLinkState(agg, core, false) == 0 {
			b.Fatal("failure rewrote no routes")
		}
		if topo.SetLinkState(agg, core, true) == 0 {
			b.Fatal("recovery rewrote no routes")
		}
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
