package sim

import (
	"runtime"
	"testing"

	"bfc/internal/topology"
	"bfc/internal/units"
)

// TestBuildAllocs holds the construction of a fabric to a budget per shard
// and per link. A BFC fat-tree runs with no flows, so what it allocates is the
// topology's shard plan, the devices, the links and the run's own
// bookkeeping. Each shard carves its switches (ports, queues, schedulers, BFC
// engines and tickers) and its NICs from a handful of shard-wide arrays, a
// port or a NIC is its link's netsim.Sender, and a link's events call
// package-level functions. So a switch, a port, a NIC and a link cost no
// object of their own: a k = 8 fat-tree (80 switches, 128 hosts, 768
// unidirectional links) allocates what a k = 4 one (20 switches, 16 hosts, 96
// links) does, within spread. One object more per switch would add 60, per
// port, NIC or link hundreds; a delivery callback per link, as the links
// before made, or building each switch from its own arrays (about 20 objects
// a switch) and handing each port and NIC a closure of its own, exceeds the
// budget several times over.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const perLink, fixed, spread = 0, 300, 32
	build := func(k, shards int) (objects, links int) {
		t.Helper()
		topo := topology.NewFatTree(topology.FatTreeConfig{
			Pods: k, EdgePerPod: k / 2, AggPerPod: k / 2, HostsPerEdge: k / 2, CorePerAgg: k / 2,
			LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
		})
		for _, n := range topo.Nodes() {
			links += len(n.Ports) // one outgoing link per port
		}
		opts := DefaultOptions(SchemeBFC, topo)
		opts.Duration = 10 * units.Microsecond
		opts.Drain = 10 * units.Microsecond
		opts.Shards = shards
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(opts, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sharding.Used != shards {
			t.Fatalf("k=%d shards=%d: ran on %d (%s)", k, shards, res.Sharding.Used, res.Sharding.Fallback)
		}
		return int(after.Mallocs - before.Mallocs), links
	}
	for _, shards := range []int{1, 2} {
		o4, l4 := build(4, shards)
		o8, l8 := build(8, shards)
		t.Logf("shards=%d: k=4 %d objects for %d links, k=8 %d objects for %d links (budget %d + %d per link)",
			shards, o4, l4, o8, l8, fixed, perLink)
		for _, b := range []struct{ k, objects, links int }{{4, o4, l4}, {8, o8, l8}} {
			if budget := fixed + perLink*b.links; b.objects > budget {
				t.Errorf("shards=%d: building the k=%d fabric allocated %d objects, budget %d", shards, b.k, b.objects, budget)
			}
		}
		if d := (o8 - perLink*l8) - (o4 - perLink*l4); d > spread || d < -spread {
			t.Errorf("shards=%d: beyond one object per link, the k=8 fabric allocated %d objects more than the k=4 one, want within %d",
				shards, d, spread)
		}
	}
}
