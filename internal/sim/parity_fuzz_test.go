package sim

import (
	"bytes"
	"fmt"
	"testing"

	"bfc/internal/scenario"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// FuzzRunParity draws a small fat-tree, a base workload, a valid scenario, a
// scheme, a seed and a shard count of 2 or 4 from the input, and requires the
// sharded run's marshalled Result to equal the serial one's byte for byte.
// Every run checks its books at its end, so a fault in the accounting fails
// here too. The shard planner assigns whole pods, so 4 shards on a 2- or
// 3-pod tree clamp to the pod count; every input still partitions.
func FuzzRunParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint64(7), uint8(1), uint8(2), uint8(1), []byte{0, 10, 3, 0, 2, 30, 1, 5, 1, 70, 3, 0})
	f.Add(uint64(11), uint8(2), uint8(4), uint8(3), []byte{3, 5, 7, 2, 4, 25, 9, 1, 4, 40, 2, 2})
	f.Add(uint64(3), uint8(0x13), uint8(5), uint8(2), []byte{2, 0, 0, 9, 2, 0, 1, 9})
	f.Fuzz(func(t *testing.T, seed uint64, shape, scheme, shards uint8, evs []byte) {
		// A scenario changes its topology's links and routes for good, so
		// each run builds its own.
		build := func() Options {
			topo := topology.NewFatTree(topology.FatTreeConfig{
				Pods:         2 + int(shape&3)%3,
				EdgePerPod:   1 + int(shape>>2&1),
				AggPerPod:    1 + int(shape>>3&1),
				HostsPerEdge: 2 + int(shape>>4&3),
				CorePerAgg:   1 + int(shape>>6&1),
				LinkRate:     100 * units.Gbps,
				LinkDelay:    units.Microsecond,
			})
			schemes := []Scheme{SchemeBFC, SchemeBFCStatic, SchemeDCQCN, SchemeDCQCNWinSFQ, SchemeHPCC, SchemeIdealFQ}
			opts := DefaultOptions(schemes[int(scheme)%len(schemes)], topo)
			opts.Duration = 30 * units.Microsecond
			opts.Drain = 150 * units.Microsecond
			opts.Seed = int64(seed >> 1)
			opts.Scenario = parityScenario(topo, seed, evs)
			return opts
		}
		opts := build()
		if err := opts.Scenario.Validate(); err != nil {
			t.Skip(err)
		}
		topo := opts.Topo
		tr, err := workload.Generate(workload.Config{
			Hosts:    topo.Hosts(),
			CDF:      workload.Google(),
			Load:     0.3 + float64(seed%5)/10,
			HostRate: topo.HostRate(topo.Hosts()[0]),
			Duration: opts.Duration,
			Seed:     int64(seed),
			Incast: workload.IncastConfig{
				Enabled:       seed&1 == 1,
				FanIn:         3,
				AggregateSize: 64 * units.KB,
				LoadFraction:  0.1,
			},
		})
		if err != nil {
			t.Skip(err)
		}
		n := 2 + 2*int(shards&1)
		serial := runWithShards(t, opts, tr.Flows, 1)
		res, sharded := runShardedResult(t, build(), tr.Flows, n)
		if res.Sharding.Used < 2 {
			t.Fatalf("shards=%d: ran on one shard (%q)", n, res.Sharding.Fallback)
		}
		if !bytes.Equal(serial, sharded) {
			t.Errorf("%s on %d nodes, shards=%d: sharded result differs from serial (digest %s vs %s)",
				opts.Scheme, topo.NumNodes(), n, digestOf(serial), digestOf(sharded))
		}
	})
}

// parityScenario decodes evs, three bytes an event, into a time-ordered
// scenario on topo: a kind, an instant in microseconds (each event at or
// after the one before it, so equal instants come up often), and an operand
// that picks a link, a degrade or a burst size. A link that is down comes back
// up before it can fail again; only switch-switch links fail.
func parityScenario(topo *topology.Topology, seed uint64, evs []byte) *scenario.Spec {
	var fabric, all [][2]string
	for _, n := range topo.Nodes() {
		for _, p := range n.Ports {
			if p.Peer < n.ID {
				continue
			}
			l := [2]string{n.Name, topo.Node(p.Peer).Name}
			all = append(all, l)
			if n.Kind == topology.Switch && topo.Node(p.Peer).Kind == topology.Switch {
				fabric = append(fabric, l)
			}
		}
	}
	spec := &scenario.Spec{Name: fmt.Sprintf("fuzz-%d", seed), Seed: int64(seed)}
	down := map[int]bool{}
	at := units.Time(0)
	for i := 0; i+2 < len(evs) && len(spec.Events) < 8; i += 3 {
		kind, dt, op := evs[i]%5, evs[i+1]%40, int(evs[i+2])
		at += units.Time(dt) * units.Microsecond / 4
		e := scenario.Event{At: at}
		switch kind {
		case 0, 1:
			l := fabric[op%len(fabric)]
			e.Kind, e.Link = scenario.LinkDown, &scenario.LinkRef{A: l[0], B: l[1]}
			if down[op%len(fabric)] {
				e.Kind = scenario.LinkUp
			}
			down[op%len(fabric)] = !down[op%len(fabric)]
		case 2:
			l := all[op%len(all)]
			e.Kind, e.Link = scenario.LinkDegrade, &scenario.LinkRef{A: l[0], B: l[1]}
			e.Degrade = &scenario.DegradeSpec{Rate: units.Rate(25+25*(op%3)) * units.Gbps, Delay: units.Time(1+op%3) * units.Microsecond}
		case 3:
			e.Kind = scenario.Incast
			e.Incast = &scenario.IncastSpec{FanIn: 2 + op%4, AggregateSize: units.Bytes(16+op%64) * units.KB}
		default:
			e.Kind = scenario.WorkloadShift
			e.Shift = &scenario.ShiftSpec{Pattern: scenario.PatternPermutation, FlowSize: units.Bytes(4+op%32) * units.KB}
		}
		spec.Events = append(spec.Events, e)
	}
	return spec
}
