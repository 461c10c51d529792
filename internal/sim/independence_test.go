package sim

import (
	"fmt"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// TestRacksAreIndependent is the premise of the event order (eventsim's
// package comment): devices share no simulated state except through links,
// so each device's history depends only on the keys of what reaches it. Two
// racks whose traffic never leaves them share no link, so every flow must
// complete at the same instant whether its rack runs alone or beside the
// other — at one shard, where both racks share one scheduler, packet pool,
// filter pool, NIC and controller slabs and recorder, and at two. No
// tolerance: a key that counted on anything a shard shares (a per-shard
// sequence number, say) would reorder a rack's same-instant events by the
// other rack's traffic, and the FCTs would drift.
func TestRacksAreIndependent(t *testing.T) {
	for _, pair := range [][2]string{{"pod0-edge0", "pod0-edge1"}, {"pod0-edge0", "pod1-edge0"}} {
		for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCN, SchemeHPCC} {
			for _, shards := range []int{1, 2} {
				a, b := rackFlows(t, pair[0], 0), rackFlows(t, pair[1], len(rackFlows(t, pair[0], 0)))
				alone := append(rackFCTs(t, scheme, shards, a), rackFCTs(t, scheme, shards, b)...)
				together := rackFCTs(t, scheme, shards, append(a, b...))
				name := fmt.Sprintf("%s+%s %s shards=%d", pair[0], pair[1], scheme, shards)
				if len(alone) != len(together) {
					t.Fatalf("%s: %d flows alone, %d together", name, len(alone), len(together))
				}
				for i := range alone {
					if alone[i] != together[i] {
						t.Errorf("%s: flow %d completed in %v alone, %v beside the other rack", name, i, alone[i], together[i])
					}
				}
			}
		}
	}
}

// rackTopology is a two-pod fat-tree of four racks, four hosts each.
func rackTopology() *topology.Topology {
	return topology.NewFatTree(topology.FatTreeForHosts(16, 100*units.Gbps, units.Microsecond))
}

// rackFlows generates intra-rack traffic among the hosts under ToR tor, with
// incasts, its flow IDs and ports starting at first so that two racks' flows
// never collide. Every rack gets the same arrivals, sizes and host pairs
// (the same seed), so two racks' events fall on the same instants.
func rackFlows(t *testing.T, tor string, first int) []*packet.Flow {
	t.Helper()
	topo := rackTopology()
	id, ok := topo.NodeByName(tor)
	if !ok {
		t.Fatalf("no node %q", tor)
	}
	var hosts []packet.NodeID
	for _, p := range topo.Node(id).Ports {
		if topo.Node(p.Peer).Kind == topology.Host {
			hosts = append(hosts, p.Peer)
		}
	}
	tr, err := workload.Generate(workload.Config{
		Hosts:    hosts,
		CDF:      workload.Google(),
		Load:     0.6,
		HostRate: topo.HostRate(hosts[0]),
		Duration: 60 * units.Microsecond,
		Seed:     10,
		BasePort: uint16(1000 + first),
		Incast:   workload.IncastConfig{Enabled: true, FanIn: 3, AggregateSize: 768 * units.KB, LoadFraction: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range tr.Flows {
		f.ID = packet.FlowID(first + i)
	}
	return tr.Flows
}

// rackFCTs runs copies of flows on a fresh topology and returns each flow's
// completion time, in flow order; every flow must complete.
func rackFCTs(t *testing.T, scheme Scheme, shards int, flows []*packet.Flow) []units.Time {
	t.Helper()
	topo := rackTopology()
	opts := DefaultOptions(scheme, topo)
	opts.Duration = 60 * units.Microsecond
	opts.Drain = 600 * units.Microsecond
	opts.Seed = 5
	opts.Shards = shards
	copies := make([]*packet.Flow, len(flows))
	for i, f := range flows {
		c := *f
		copies[i] = &c
	}
	res, err := Run(opts, copies)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharding.Used != shards {
		t.Fatalf("asked for %d shards, ran on %d (%q)", shards, res.Sharding.Used, res.Sharding.Fallback)
	}
	fcts := make([]units.Time, len(copies))
	for i, f := range copies {
		if fcts[i] = f.FCT(); fcts[i] <= 0 {
			t.Fatalf("%s shards=%d: flow %d of %d did not complete", scheme, shards, i, len(copies))
		}
	}
	return fcts
}
