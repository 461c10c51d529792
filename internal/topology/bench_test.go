package topology

import (
	"runtime"
	"testing"

	"bfc/internal/units"
)

// BenchmarkFatTreeBuild1024 measures building the scale tier's standard
// 1024-host fabric — a 264-switch three-tier fat-tree — including the full
// ECMP route computation (one reverse BFS per leaf switch, 128 of them). ns/op
// is the fabric construction latency every large-scale job pays once; B/op
// tracks the routing-table footprint.
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

// The routing tables grow with nodes × leaf switches, not nodes × hosts: at
// the largest fabric a run may declare (4096 hosts, 512 leaves) the live
// table has one column per leaf plus column 0, the baseline shares it until a
// link changes, and the whole build stays under 24 MB (a column per host
// would need ≈ 170 MB).
func TestRouteTablesScaleWithLeaves(t *testing.T) {
	cfg := FatTreeForHosts(4096, 100*units.Gbps, units.Microsecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	topo := NewFatTree(cfg)
	runtime.ReadMemStats(&after)
	if leaves := cfg.Pods * cfg.EdgePerPod; len(topo.leaves) != leaves {
		t.Fatalf("%d leaves, want %d edge switches", len(topo.leaves), leaves)
	}
	if want := topo.NumNodes() * (len(topo.leaves) + 1); len(topo.routes) != want || len(topo.dist) != want {
		t.Fatalf("tables hold %d routes and %d distances, want nodes × (leaves + 1) = %d", len(topo.routes), len(topo.dist), want)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("4096-host build: %d nodes, %d leaves, %.1f MB allocated", topo.NumNodes(), len(topo.leaves), mb)
	if mb >= 24 {
		t.Fatalf("building the 4096-host fat-tree allocated %.1f MB, want < 24", mb)
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
