package sim

import (
	"runtime"
	"testing"

	"bfc/internal/topology"
	"bfc/internal/units"
)

// TestBuildAllocs holds the construction of a fabric to a fixed object budget
// per switch, per port and per link. A k = 8 BFC fat-tree (80 switches, 128
// hosts, 768 unidirectional links) runs with no flows, so what it allocates
// is the devices, the links and the run's own bookkeeping. A switch's queues,
// schedulers and BFC engine state are a handful of switch-wide arrays (about
// 17 objects); a switch port costs its transmit callback and a host port its
// NIC (5 objects), which the per-port budget covers at this fabric's five
// switch ports per host; a link costs its three callbacks. Per-port heap objects (the queues, scheduler, bloom counters and
// upstream filter of each port, about 20 objects per switch port) exceed the
// budget several times over.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const perSwitch, perPort, perLink, fixed = 20, 2, 3, 300
	topo := topology.NewFatTree(topology.FatTreeConfig{
		Pods: 8, EdgePerPod: 4, AggPerPod: 4, HostsPerEdge: 4, CorePerAgg: 4,
		LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
	switches, ports := 0, 0
	for _, n := range topo.Nodes() {
		if n.Kind == topology.Switch {
			switches++
		}
		ports += len(n.Ports)
	}
	links := ports // one outgoing link per port
	budget := perSwitch*switches + perPort*ports + perLink*links + fixed
	for _, shards := range []int{1, 2} {
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
			t.Fatalf("shards=%d: ran on %d (%s)", shards, res.Sharding.Used, res.Sharding.Fallback)
		}
		objects := int(after.Mallocs - before.Mallocs)
		t.Logf("shards=%d: %d objects for %d switches, %d ports, %d links (budget %d)",
			shards, objects, switches, ports, links, budget)
		if objects > budget {
			t.Errorf("shards=%d: building the fabric allocated %d objects, budget %d", shards, objects, budget)
		}
	}
}
