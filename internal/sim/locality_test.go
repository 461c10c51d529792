package sim

import (
	"slices"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// withIdleBranch rebuilds topo node for node and link for link, then attaches
// an idle, distant branch: a new switch on a 1 µs link to the first spine,
// with a 200 µs link to a new host. The branch only appends: every existing
// node keeps its ID and its ports.
func withIdleBranch(t *testing.T, topo *topology.Topology) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(topo.Name + "+branch")
	spine := packet.NodeID(-1)
	for _, n := range topo.Nodes() {
		b.AddNode(n.Kind, n.Tier, n.Name)
		if spine < 0 && n.Tier == topology.TierSpine {
			spine = n.ID
		}
	}
	for _, n := range topo.Nodes() {
		for _, p := range n.Ports {
			if p.Peer > n.ID {
				b.AddLink(n.ID, p.Peer, p.Rate, p.Delay)
			}
		}
	}
	rate := topo.HostRate(topo.Hosts()[0])
	sw := b.AddNode(topology.Switch, topology.TierGateway, "branch")
	b.AddLink(spine, sw, rate, units.Microsecond)
	b.AddLink(sw, b.AddNode(topology.Host, topology.TierHost, "branch-h"), rate, 200*units.Microsecond)
	out := b.Build()
	for _, n := range topo.Nodes() {
		if got := out.Node(n.ID).Ports; !slices.Equal(got[:len(n.Ports)], n.Ports) {
			t.Fatalf("%s: rebuilt ports differ from the original's", n.Name)
		}
	}
	return out
}

// flowFCTs runs one scheme over a fresh copy of flows and returns every
// flow's completion time (0 for a flow that did not finish).
func flowFCTs(t *testing.T, opts Options, flows []*packet.Flow) []units.Time {
	t.Helper()
	copies := make([]*packet.Flow, len(flows))
	for i, f := range flows {
		c := *f
		copies[i] = &c
	}
	res, err := Run(opts, copies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharding.Used != max(opts.Shards, 1) {
		t.Fatalf("asked for %d shards, ran on %d (%s)", opts.Shards, res.Sharding.Used, res.Sharding.Fallback)
	}
	fcts := make([]units.Time, len(copies))
	for i, f := range copies {
		fcts[i] = f.FCT()
	}
	return fcts
}

// TestLocalityContract is the locality contract: a device's parameters come
// from the device and a flow's from its own path, so attaching an idle,
// distant branch to a k = 4 fat-tree — a switch one 1 µs hop from a spine,
// with a 200 µs link to a host that sends nothing — changes no existing
// flow's FCT, under any scheme with a per-hop or per-path parameter, at one
// shard and at two. A fabric-wide hop RTT or window fails it.
func TestLocalityContract(t *testing.T) {
	plain := topology.NewFatTree(topology.FatTreeConfig{
		Pods: 4, EdgePerPod: 2, AggPerPod: 2, HostsPerEdge: 2, CorePerAgg: 2,
		LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
	branched := withIdleBranch(t, plain)
	// Enough incast to pause BFC queues and fill windows.
	tr, err := workload.Generate(workload.Config{
		Hosts: plain.Hosts(), CDF: workload.Google(), Load: 0.8, HostRate: 100 * units.Gbps,
		Duration: 100 * units.Microsecond, Seed: 11,
		Incast: workload.IncastConfig{Enabled: true, FanIn: 12, AggregateSize: 2 * units.MB, LoadFraction: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := tr.Flows
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCNWin, SchemeHPCC, SchemeIdealFQ} {
		for _, shards := range []int{1, 2} {
			run := func(topo *topology.Topology) []units.Time {
				opts := DefaultOptions(sc, topo)
				opts.Duration = 100 * units.Microsecond
				opts.Drain = 1 * units.Millisecond
				opts.Seed = 11
				opts.Shards = shards
				return flowFCTs(t, opts, flows)
			}
			want, got := run(plain), run(branched)
			changed, done := 0, 0
			for i := range want {
				if want[i] != 0 {
					done++
				}
				if got[i] != want[i] {
					if changed == 0 {
						t.Errorf("%s shards=%d: %v: FCT %v without the branch, %v with it",
							sc, shards, flows[i], want[i], got[i])
					}
					changed++
				}
			}
			if changed > 0 {
				t.Errorf("%s shards=%d: the idle branch changed %d of %d flows' FCTs", sc, shards, changed, len(flows))
			}
			if done < len(flows) {
				t.Errorf("%s shards=%d: only %d of %d flows finished", sc, shards, done, len(flows))
			}
		}
	}
}
