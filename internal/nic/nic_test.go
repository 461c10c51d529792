package nic_test

import (
	"testing"

	"bfc/internal/bloom"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/nic"
	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// fakePeer is a netsim.Device that records everything delivered to it.
type fakePeer struct {
	id   packet.NodeID
	pkts []*packet.Packet
	ctrl []netsim.ControlFrame
}

func (f *fakePeer) ID() packet.NodeID                           { return f.id }
func (f *fakePeer) AttachLink(port int, link *netsim.Link)      {}
func (f *fakePeer) ReceivePacket(in int, p *packet.Packet)      { f.pkts = append(f.pkts, p) }
func (f *fakePeer) ReceiveControl(p int, c netsim.ControlFrame) { f.ctrl = append(f.ctrl, c) }

func (f *fakePeer) kind(k packet.Kind) []*packet.Packet {
	var out []*packet.Packet
	for _, p := range f.pkts {
		if p.Kind == k {
			out = append(out, p)
		}
	}
	return out
}

// testNIC wires a NIC's uplink to a fakePeer standing in for the ToR.
type testNIC struct {
	sched     *eventsim.Scheduler
	topo      *topology.Topology
	nic       *nic.NIC
	peer      *fakePeer
	completed []*packet.Flow
	sent      int32 // sender slots handed out
}

func newTestNIC(t *testing.T, mutate func(*nic.Config)) *testNIC {
	t.Helper()
	tn := &testNIC{sched: eventsim.New()}
	tn.topo = topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts: 2, LinkRate: 100 * units.Gbps, LinkDelay: 1 * units.Microsecond,
	})
	host := tn.topo.Node(tn.topo.Hosts()[0])
	cfg := nic.Config{
		Scheduler:      tn.sched,
		Topo:           tn.topo,
		Node:           host,
		MTU:            1000,
		RTO:            4 * units.Millisecond,
		Pool:           packet.NewPool(),
		OnFlowComplete: func(f *packet.Flow) { tn.completed = append(tn.completed, f) },
		Slabs:          nic.NewSlabs(4, 4),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	tn.nic = nic.New(cfg)
	tn.peer = &fakePeer{id: 1000}
	link := netsim.NewLink(tn.sched, "h0->peer", 100*units.Gbps, 1*units.Microsecond, tn.peer, 0)
	tn.nic.AttachLink(0, link)
	return tn
}

// flowFromHost returns a flow this NIC sends, in the next sender slot.
func (tn *testNIC) flowFromHost(id packet.FlowID, size units.Bytes) *packet.Flow {
	hosts := tn.topo.Hosts()
	tn.sent++
	return &packet.Flow{ID: id, Src: hosts[0], Dst: hosts[1], Size: size, SendSlot: tn.sent - 1}
}

func TestNewRejectsNilPool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nic.New accepted a config without a packet pool")
		}
	}()
	newTestNIC(t, func(c *nic.Config) { c.Pool = nil })
}

func TestPFCPauseStopsDataAndResumeReleasesIt(t *testing.T) {
	tn := newTestNIC(t, nil)
	tn.nic.ReceiveControl(0, netsim.PFCFrame{Pause: true})
	tn.nic.StartFlow(tn.flowFromHost(1, 3000))
	tn.sched.RunUntil(100 * units.Microsecond)
	if got := len(tn.peer.kind(packet.Data)); got != 0 {
		t.Fatalf("PFC-paused NIC transmitted %d data packets", got)
	}

	tn.nic.ReceiveControl(0, netsim.PFCFrame{Pause: false})
	tn.sched.RunUntil(200 * units.Microsecond)
	if got := len(tn.peer.kind(packet.Data)); got != 3 {
		t.Fatalf("after resume got %d data packets, want 3", got)
	}
	// Pause accounting on the uplink must cover the paused interval only.
	if paused := tn.nic.Link().PausedTime(); paused != 100*units.Microsecond {
		t.Fatalf("link paused time = %v, want 100us", paused)
	}
}

func TestBFCBloomFilterPausesOnlyMatchingFlow(t *testing.T) {
	const vfidSpace = 4096
	tn := newTestNIC(t, func(c *nic.Config) { c.VFIDSpace = vfidSpace })
	paused := tn.flowFromHost(1, 3000)
	// Find a second flow whose VFID does not alias the paused one. Each probe
	// hashes a fresh copy: VFIDOf caches its hash on first use, so a flow's
	// tuple must be final before the flow enters the simulation.
	other := tn.flowFromHost(2, 2000)
	for port := uint16(1); ; port++ {
		probe := *other
		if probe.VFIDOf(vfidSpace) != paused.VFIDOf(vfidSpace) {
			break
		}
		other.SrcPort = port
	}

	pauses := bloom.NewCounting(bloom.DefaultParams())
	pauses.Add(paused.VFIDOf(vfidSpace))
	filter := pauses.Snapshot(nil)
	tn.nic.ReceiveControl(0, netsim.BFCPauseFrame{Filter: filter})
	tn.nic.StartFlow(paused)
	tn.nic.StartFlow(other)
	tn.sched.RunUntil(100 * units.Microsecond)
	for _, p := range tn.peer.kind(packet.Data) {
		if p.Flow.ID == paused.ID {
			t.Fatal("paused flow transmitted while its VFID was in the filter")
		}
	}
	if got := len(tn.peer.kind(packet.Data)); got != 2 {
		t.Fatalf("unpaused flow sent %d packets, want 2", got)
	}

	// An empty filter resumes the paused flow.
	tn.nic.ReceiveControl(0, netsim.BFCPauseFrame{Filter: bloom.NewCounting(bloom.DefaultParams()).Snapshot(nil)})
	tn.sched.RunUntil(200 * units.Microsecond)
	if got := len(tn.peer.kind(packet.Data)); got != 5 {
		t.Fatalf("after resume got %d data packets, want 5", got)
	}
}

func TestReceiverAcksNacksAndCompletion(t *testing.T) {
	tn := newTestNIC(t, nil)
	hosts := tn.topo.Hosts()
	// A 3-packet flow addressed to this NIC, delivered out of order.
	flow := &packet.Flow{ID: 7, Src: hosts[1], Dst: hosts[0], Size: 3000, StartTime: 1 * units.Microsecond}
	deliver := func(at units.Time, seq int) {
		tn.sched.Schedule(at, func() {
			tn.nic.ReceivePacket(0, &packet.Packet{
				Kind: packet.Data, Flow: flow, Seq: seq, Payload: 1000,
				Size: 1000 + packet.DataHeaderSize, Priority: packet.PrioData,
			})
		})
	}
	deliver(2*units.Microsecond, 0) // in order -> ACK 1
	deliver(4*units.Microsecond, 2) // gap -> NACK 1
	deliver(6*units.Microsecond, 1) // fills gap -> ACK 2
	deliver(8*units.Microsecond, 2) // completes -> ACK 3
	tn.sched.RunUntil(100 * units.Microsecond)

	if nacks := tn.peer.kind(packet.Nack); len(nacks) != 1 || nacks[0].Seq != 1 {
		t.Fatalf("nacks = %+v, want one with Seq=1", nacks)
	}
	acks := tn.peer.kind(packet.Ack)
	if len(acks) != 3 {
		t.Fatalf("got %d acks, want 3", len(acks))
	}
	if last := acks[len(acks)-1]; last.Seq != 3 {
		t.Fatalf("final cumulative ack = %d, want 3", last.Seq)
	}
	if len(tn.completed) != 1 || tn.completed[0].ID != flow.ID {
		t.Fatalf("completion callback fired %d times", len(tn.completed))
	}
	if flow.FinishTime != 8*units.Microsecond {
		t.Fatalf("FinishTime = %v, want 8us", flow.FinishTime)
	}
	if tn.nic.Stats().DeliveredBytes != 3000 {
		t.Fatalf("DeliveredBytes = %v, want 3000", tn.nic.Stats().DeliveredBytes)
	}

	// A duplicate of a delivered packet is re-ACKed, not re-counted.
	tn.sched.Schedule(110*units.Microsecond, func() {
		tn.nic.ReceivePacket(0, &packet.Packet{
			Kind: packet.Data, Flow: flow, Seq: 0, Payload: 1000,
			Size: 1000 + packet.DataHeaderSize, Priority: packet.PrioData,
		})
	})
	tn.sched.RunUntil(200 * units.Microsecond)
	if tn.nic.Stats().DeliveredBytes != 3000 {
		t.Fatalf("DeliveredBytes after duplicate = %v, want 3000", tn.nic.Stats().DeliveredBytes)
	}
	if len(tn.completed) != 1 {
		t.Fatal("duplicate delivery re-fired the completion callback")
	}
	if got := len(tn.peer.kind(packet.Ack)); got != 4 {
		t.Fatalf("got %d acks after duplicate, want 4", got)
	}
}

// TestPrivateSlabRunsFlowsInTurn: a NIC built without shared slabs keeps one
// sender record, so its flows (all in slot 0) take it in turn. A flow may
// start once the last has been acknowledged, and a late ACK of the last flow
// does not touch the next one.
func TestPrivateSlabRunsFlowsInTurn(t *testing.T) {
	tn := newTestNIC(t, func(c *nic.Config) { c.Slabs = nil })
	hosts := tn.topo.Hosts()
	first := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1], Size: 2000}
	second := &packet.Flow{ID: 2, Src: hosts[0], Dst: hosts[1], Size: 3000}
	ack := func(f *packet.Flow, seq int) {
		tn.nic.ReceivePacket(0, &packet.Packet{Kind: packet.Ack, Flow: f, Seq: seq, Size: packet.ControlPacketSize})
	}
	tn.nic.StartFlow(first)
	tn.sched.RunUntil(10 * units.Microsecond)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second flow started while the first held the only sender record")
			}
		}()
		tn.nic.StartFlow(second)
	}()
	ack(first, 2)
	if got := nic.SendOrderLen(tn.nic); got != 0 {
		t.Fatalf("%d flows in the send order after the first flow's last ACK, want 0", got)
	}
	tn.nic.StartFlow(second)
	ack(first, 2) // late duplicate of the first flow's last ACK
	tn.sched.RunUntil(20 * units.Microsecond)
	if got := nic.SendOrderLen(tn.nic); got != 1 {
		t.Fatalf("%d flows in the send order with the second flow unacknowledged, want 1", got)
	}
	if sent := len(tn.peer.kind(packet.Data)); sent != 5 {
		t.Fatalf("sent %d data packets, want 2 + 3", sent)
	}
}
