package switchsim_test

import (
	"slices"
	"testing"

	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/switchsim"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// Every BFC switch derives its own parameters from its own node: the hop RTT
// and τ from its ports, the full-port fallback draw from its node ID. These
// anchors fail wherever a value is derived once for the whole fabric.

// newBFCSwitch builds a BFC switch for one node of topo, with numQueues data
// queues and no high-priority queue.
func newBFCSwitch(topo *topology.Topology, node *topology.Node, numQueues int) *switchsim.Switch {
	return switchsim.New(switchsim.Config{
		Scheduler:  eventsim.New(),
		Topo:       topo,
		Node:       node,
		MTU:        1000,
		NumQueues:  numQueues,
		BufferSize: 12 * units.MB,
		BFC:        bfcConfig(numQueues, false),
		Pool:       packet.NewPool(),
	})
}

// TestHopRTTIsLocal builds every switch of a cross-DC fabric. A switch inside
// a data center has T2's hop RTT, 2 × (1 µs + one 1 048 B serialization at
// 100 Gbps) = 2.168 µs; only the two gateways, which own the 200 µs inter-DC
// link, have 400.168 µs. τ is half of each.
func TestHopRTTIsLocal(t *testing.T) {
	const (
		t2HRTT      = 2_167_680 * units.Picosecond
		gatewayHRTT = 400_167_680 * units.Picosecond
	)
	x := topology.NewCrossDC(topology.CrossDCConfig{
		DC: topology.T2Config(), GatewayRate: 100 * units.Gbps, GatewayDelay: 200 * units.Microsecond,
	})
	checked := 0
	for _, node := range x.Nodes() {
		if node.Kind != topology.Switch {
			continue
		}
		want := t2HRTT
		if node.Tier == topology.TierGateway {
			want = gatewayHRTT
		}
		cfg := newBFCSwitch(x.Topology, node, 8).Engine().Config()
		if cfg.HRTT != want || cfg.Tau != want/2 {
			t.Errorf("%s: HRTT %v, τ %v; want %v, %v", node.Name, cfg.HRTT, cfg.Tau, want, want/2)
		}
		checked++
	}
	t2 := topology.NewT2()
	for _, node := range t2.Nodes() {
		if node.Kind == topology.Switch {
			if got := newBFCSwitch(t2, node, 8).Engine().Config().HRTT; got != t2HRTT {
				t.Errorf("T2 %s: HRTT %v, want %v", node.Name, got, t2HRTT)
			}
		}
	}
	if checked < 3 {
		t.Fatalf("checked %d cross-DC switches", checked)
	}
}

// TestFallbackDrawsDiffer fills every queue of one egress port on two
// switches of one fabric and offers both the same new flows: each then takes
// the §3.3 fallback, and the two switches must not draw the same queues.
func TestFallbackDrawsDiffer(t *testing.T) {
	const queues, ingress, egress, fallbacks = 8, 0, 1, 16
	topo := topology.NewT2()
	var draws [][]int
	for _, node := range topo.Nodes() {
		if node.Kind != topology.Switch || len(draws) == 2 {
			continue
		}
		e := newBFCSwitch(topo, node, queues).Engine()
		var seq []int
		for id := 1; id <= queues+fallbacks; id++ {
			f := &packet.Flow{ID: packet.FlowID(id), Src: 1, Dst: 2, SrcPort: uint16(id), DstPort: 4791}
			p := &packet.Packet{Kind: packet.Data, Flow: f, Payload: 1000, Size: 1000 + packet.DataHeaderSize}
			pl := e.OnArrival(0, ingress, egress, p)
			if id > queues {
				seq = append(seq, pl.Queue)
			}
		}
		if got := e.Stats().CollidedAssignments; got != fallbacks {
			t.Fatalf("%s: %d collided assignments, want %d", node.Name, got, fallbacks)
		}
		draws = append(draws, seq)
	}
	if slices.Equal(draws[0], draws[1]) {
		t.Fatalf("two switches drew the same fallback queues %v", draws[0])
	}
}
