// Package nic implements the simulated host NIC: the RDMA-style sender
// (per-flow queues, Go-Back-N retransmission, congestion-control enforcement,
// reaction to PFC and BFC pause frames from the top-of-rack switch) and the
// receiver (in-order delivery, cumulative ACKs, NACKs, DCQCN CNP generation,
// HPCC telemetry echo, flow-completion detection).
//
// A NIC keeps no per-flow heap object and no table keyed by flow ID: a
// flow's state is a record in the Slabs the NICs of its shard share, and the
// retransmission timer inside that record fires a static function with the
// record as its argument.
package nic

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/cc"
	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/packet"
	"bfc/internal/queue"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// BytesSentObserver is implemented by congestion controllers that need to see
// transmitted bytes (DCQCN's byte-counter-driven rate recovery).
type BytesSentObserver interface {
	OnBytesSent(now units.Time, b units.Bytes)
}

// Config parameterizes a NIC.
type Config struct {
	Scheduler *eventsim.Scheduler
	Topo      *topology.Topology
	Node      *topology.Node

	// MTU is the maximum payload per data packet.
	MTU units.Bytes

	// NewController builds the per-flow congestion controller for the
	// configured scheme. Nil means no control (line-rate senders, as BFC).
	NewController func(f *packet.Flow) cc.Controller

	// VFIDSpace enables BFC pause handling at the NIC: the NIC keeps a
	// per-flow (per-VFID) send queue and honours bloom-filter pause frames
	// from the ToR. Zero disables BFC handling.
	VFIDSpace int

	// Pool recycles packet objects across the simulation (see packet.Pool
	// for the ownership rules).
	Pool *packet.Pool

	// Filters takes back the BFC pause filters the NIC's upstream state
	// displaces (see bloom.Pool). Nil leaves them to the garbage collector.
	Filters *bloom.Pool

	// RTO is the Go-Back-N retransmission timeout (covers tail losses where
	// no NACK can be generated).
	RTO units.Time

	// GenerateCNP makes the receiver side emit DCQCN CNPs for ECN-marked
	// packets, at most one per CNPInterval per flow.
	GenerateCNP bool
	CNPInterval units.Time

	// EchoINT makes the receiver copy the HPCC telemetry of each data packet
	// onto its ACK.
	EchoINT bool

	// OnFlowComplete is invoked (once) when the receiver has all bytes of a
	// flow in order.
	OnFlowComplete func(f *packet.Flow)

	// Recorder, when non-nil, receives flow start/finish flight-recorder
	// events. Recording is observational only.
	Recorder telemetry.Recorder

	// Slabs holds the per-flow records, shared by the NICs of one shard. Nil
	// gives the NIC a private slab of one record a side: every flow then
	// keeps slot 0, and the NIC starts a flow only once the last flow it
	// sent has completed (two NICs back to back, one flow at a time).
	Slabs *Slabs
}

// Slabs holds the per-flow state of the NICs of one shard: a sender record
// for each flow they source and a receiver record for each flow they sink,
// at the flow's SendSlot and RecvSlot. Slabs are sized once, before the first
// flow starts, and never grow, so no record moves while its retransmission
// timer is armed (the scheduler points at the timer).
type Slabs struct {
	senders   []senderFlow
	receivers []receiverFlow
}

// NewSlabs returns slabs for the given numbers of sent and received flows.
func NewSlabs(senders, receivers int) *Slabs {
	return &Slabs{senders: make([]senderFlow, senders), receivers: make([]receiverFlow, receivers)}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Scheduler == nil || c.Topo == nil || c.Node == nil || c.Pool == nil {
		return fmt.Errorf("nic: missing scheduler, topology, node or packet pool")
	}
	if c.Node.Kind != topology.Host {
		return fmt.Errorf("nic: node %q is not a host", c.Node.Name)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("nic: MTU must be positive")
	}
	if c.RTO <= 0 {
		return fmt.Errorf("nic: RTO must be positive")
	}
	if c.GenerateCNP && c.CNPInterval <= 0 {
		return fmt.Errorf("nic: CNP generation needs a positive interval")
	}
	if c.VFIDSpace < 0 {
		return fmt.Errorf("nic: negative VFID space")
	}
	return nil
}

// Stats are per-NIC counters.
type Stats struct {
	// DataPacketsSent counts data packets put on the wire, retransmissions
	// included; the benchmark's NIC microdriver reads it.
	DataPacketsSent uint64
	// DeliveredBytes counts in-order payload bytes accepted by the receiver;
	// the run's utilisation reads it.
	DeliveredBytes units.Bytes
	// FlowsStarted and FlowsCompleted count flows begun at the sender and
	// finished at the receiver: the flow term of a run's books.
	FlowsStarted, FlowsCompleted uint64
}

// senderFlow is the transmit-side state for one flow. A record whose flow is
// nil has not been started; a completed one stays in its slot.
type senderFlow struct {
	nic         *NIC
	flow        *packet.Flow
	ctrl        cc.Controller
	numPackets  int
	nextSeq     int // next sequence to (re)send
	acked       int // cumulative acked sequence (next expected by receiver)
	nextAllowed units.Time
	rto         eventsim.Timer
	completed   bool
	// vfid caches the flow's BFC virtual flow ID so the pause check in
	// pickSender does not rehash the 5-tuple on every scheduling decision.
	vfid packet.VFID
}

// receiverFlow is the receive-side state for one flow; the first data packet
// of the flow claims the record.
type receiverFlow struct {
	flow     *packet.Flow
	expected int
	finished bool
	lastCNP  units.Time
	haveCNP  bool
}

// NIC is a simulated host network interface. It implements netsim.Device.
type NIC struct {
	cfg   Config
	sched *eventsim.Scheduler
	pool  *packet.Pool

	link *netsim.Link

	ctrlQueue queue.FIFO

	slabs *Slabs
	// sendOrder holds the started, uncompleted senders in start order;
	// pickSender round-robins over it from rrNext.
	sendOrder []*senderFlow
	rrNext    int

	transmitting bool
	pfcPaused    bool
	// upstream holds the ToR's BFC filter (BFC NICs only, VFIDSpace > 0).
	upstream core.UpstreamState
	wakeup   eventsim.Timer
	// onTxDone is the serialization-complete callback handed to the link,
	// allocated once so the transmit path creates no per-packet closures.
	onTxDone func()

	stats Stats
}

// New creates a NIC.
func New(cfg Config) *NIC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &NIC{
		cfg:   cfg,
		sched: cfg.Scheduler,
		pool:  cfg.Pool,
		slabs: cfg.Slabs,
	}
	if n.slabs == nil {
		n.slabs = NewSlabs(1, 1)
	}
	if cfg.VFIDSpace > 0 {
		n.upstream = *core.NewUpstreamState(cfg.VFIDSpace)
	}
	n.wakeup = *eventsim.NewTimer(cfg.Scheduler, wakeFire, n)
	n.onTxDone = func() {
		n.transmitting = false
		n.tryTransmit()
	}
	return n
}

// ID implements netsim.Device.
func (n *NIC) ID() packet.NodeID { return n.cfg.Node.ID }

// AttachLink implements netsim.Device. Hosts have a single port (0).
func (n *NIC) AttachLink(port int, link *netsim.Link) {
	if port != 0 {
		panic("nic: hosts have exactly one port")
	}
	n.link = link
}

// Link returns the host uplink.
func (n *NIC) Link() *netsim.Link { return n.link }

// Stats returns a copy of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// HeldFilters returns 1 while a BFC filter is installed in the NIC's upstream
// state and 0 otherwise.
func (n *NIC) HeldFilters() int {
	if n.upstream.Holds() {
		return 1
	}
	return 0
}

// StartFlow begins transmitting a flow originating at this host.
func (n *NIC) StartFlow(f *packet.Flow) {
	if f.Src != n.ID() {
		panic(fmt.Sprintf("nic: flow %v does not originate at host %d", f, n.ID()))
	}
	sf := &n.slabs.senders[f.SendSlot]
	if sf.flow != nil && !sf.completed {
		panic(fmt.Sprintf("nic: flow %d starts in sender slot %d, which flow %d holds", f.ID, f.SendSlot, sf.flow.ID))
	}
	*sf = senderFlow{
		nic:        n,
		flow:       f,
		numPackets: f.NumPackets(n.cfg.MTU),
	}
	if n.cfg.VFIDSpace > 0 {
		sf.vfid = f.VFIDOf(n.cfg.VFIDSpace)
	}
	if n.cfg.NewController != nil {
		sf.ctrl = n.cfg.NewController(f)
	} else {
		sf.ctrl = cc.None{}
	}
	sf.rto = *eventsim.NewTimer(n.sched, rtoFire, sf)
	n.sendOrder = append(n.sendOrder, sf)
	n.stats.FlowsStarted++
	if n.cfg.Recorder != nil {
		n.cfg.Recorder.Record(telemetry.Event{At: n.sched.Now(), Kind: telemetry.KindFlowStart,
			Node: n.ID(), Port: -1, Queue: -1, Flow: f.ID, Value: int64(f.Size)})
	}
	n.tryTransmit()
}

// Control-frame handling ------------------------------------------------------

// ReceiveControl implements netsim.Device.
func (n *NIC) ReceiveControl(port int, frame netsim.ControlFrame) {
	switch f := frame.(type) {
	case netsim.PFCFrame:
		n.pfcPaused = f.Pause
		if n.link != nil {
			n.link.MarkPaused(f.Pause)
		}
		if !f.Pause {
			n.tryTransmit()
		}
	case netsim.BFCPauseFrame:
		if n.cfg.VFIDSpace == 0 {
			n.cfg.Filters.Put(f.Filter)
			return
		}
		n.cfg.Filters.Put(n.upstream.Update(f.Filter))
		n.tryTransmit()
	default:
		panic(fmt.Sprintf("nic: unknown control frame %T", frame))
	}
}

// OnLinkStateChange resets the uplink's pause machinery after the attached
// link failed or recovered: any PFC pause and BFC filter from the ToR is
// voided (the ToR re-arms its side symmetrically). Go-Back-N state is left
// alone — senders with packets stranded on the dead link recover through the
// normal NACK/RTO path once the route heals.
func (n *NIC) OnLinkStateChange(up bool) {
	n.pfcPaused = false
	if n.link != nil {
		n.link.MarkPaused(false)
	}
	n.cfg.Filters.Put(n.upstream.Reset())
	if up {
		n.tryTransmit()
	}
}

// Transmit path ---------------------------------------------------------------

// wakeFire is the pacing wake-up's callback.
func wakeFire(a any) { a.(*NIC).tryTransmit() }

// tryTransmit sends the next eligible packet, if any, and otherwise arms a
// wake-up for the earliest pacing deadline.
func (n *NIC) tryTransmit() {
	if n.link == nil || n.transmitting || n.link.Busy() {
		return
	}
	// Control packets (ACK/NACK/CNP) first; they are never paused.
	if !n.ctrlQueue.Empty() {
		n.transmitPacket(n.ctrlQueue.Pop())
		return
	}
	if n.pfcPaused {
		return
	}
	now := n.sched.Now()
	sf, wakeAt := n.pickSender(now)
	if sf == nil {
		if wakeAt > now {
			n.wakeup.Reset(wakeAt - now)
		}
		return
	}
	n.sendDataPacket(now, sf)
}

// pickSender round-robins over flows and returns the first eligible one, or
// (nil, earliest pacing deadline) when only pacing stands in the way.
func (n *NIC) pickSender(now units.Time) (*senderFlow, units.Time) {
	if len(n.sendOrder) == 0 {
		return nil, 0
	}
	var earliest units.Time
	count := len(n.sendOrder)
	next := n.rrNext
	for range count {
		sf := n.sendOrder[next]
		if next++; next == count {
			next = 0
		}
		if sf.completed || sf.nextSeq >= sf.numPackets {
			continue
		}
		// BFC per-flow pause from the ToR (never set without BFC).
		if n.upstream.VFIDPaused(sf.vfid) {
			continue
		}
		// Window check.
		if w := sf.ctrl.Window(); w > 0 {
			inflight := units.Bytes(sf.nextSeq-sf.acked) * n.cfg.MTU
			if inflight >= w {
				continue
			}
		}
		// Pacing check.
		if sf.nextAllowed > now {
			if earliest == 0 || sf.nextAllowed < earliest {
				earliest = sf.nextAllowed
			}
			continue
		}
		n.rrNext = next
		return sf, 0
	}
	return nil, earliest
}

// sendDataPacket emits the next packet of the flow.
func (n *NIC) sendDataPacket(now units.Time, sf *senderFlow) {
	seq := sf.nextSeq
	payload := n.cfg.MTU
	remaining := sf.flow.Size - units.Bytes(seq)*n.cfg.MTU
	if remaining < payload {
		payload = remaining
	}
	if payload < 0 {
		payload = 0
	}
	p := n.pool.Get()
	p.Kind = packet.Data
	p.Flow = sf.flow
	p.Seq = seq
	p.Payload = payload
	p.Size = payload + packet.DataHeaderSize
	p.First = seq == 0
	p.Priority = packet.PrioData
	sf.nextSeq++
	n.stats.DataPacketsSent++

	// Pacing: space the next packet of this flow at the controller's rate.
	if r := sf.ctrl.Rate(); r > 0 {
		sf.nextAllowed = now + units.SerializationTime(p.Size, r)
	}
	if obs, ok := sf.ctrl.(BytesSentObserver); ok {
		obs.OnBytesSent(now, p.Size)
	}
	sf.rto.Reset(n.cfg.RTO)
	n.transmitPacket(p)
}

func (n *NIC) transmitPacket(p *packet.Packet) {
	n.transmitting = true
	n.link.Transmit(p, n.onTxDone)
}

// rtoFire is every retransmission timer's callback.
func rtoFire(a any) {
	sf := a.(*senderFlow)
	sf.nic.onRTO(sf)
}

// onRTO rewinds the flow to the last acknowledged packet (Go-Back-N) when no
// feedback arrives for a full timeout.
func (n *NIC) onRTO(sf *senderFlow) {
	if sf.completed || sf.acked >= sf.numPackets {
		return
	}
	sf.nextSeq = min(sf.nextSeq, sf.acked)
	sf.rto.Reset(n.cfg.RTO)
	n.tryTransmit()
}

// Receive path ----------------------------------------------------------------

// ReceivePacket implements netsim.Device. The NIC is the terminal owner of
// every packet delivered to it: once the handler returns, the packet is
// recycled into the pool and must not be referenced again.
func (n *NIC) ReceivePacket(ingress int, p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		n.receiveData(p)
	case packet.Ack:
		n.receiveAck(p)
	case packet.Nack:
		n.receiveNack(p)
	case packet.CNP:
		n.receiveCNP(p)
	default:
		panic(fmt.Sprintf("nic: unknown packet kind %v", p.Kind))
	}
	n.pool.Put(p)
}

func (n *NIC) receiveData(p *packet.Packet) {
	now := n.sched.Now()
	if p.Flow.Dst != n.ID() {
		panic(fmt.Sprintf("nic: data packet for %d arrived at %d", p.Flow.Dst, n.ID()))
	}
	rf := &n.slabs.receivers[p.Flow.RecvSlot]
	if rf.flow != p.Flow {
		*rf = receiverFlow{flow: p.Flow}
	}

	// DCQCN: congestion notification back to the sender, rate limited.
	if n.cfg.GenerateCNP && p.ECN {
		if !rf.haveCNP || now-rf.lastCNP >= n.cfg.CNPInterval {
			rf.haveCNP = true
			rf.lastCNP = now
			cnp := n.pool.Get()
			cnp.Kind = packet.CNP
			cnp.Flow = p.Flow
			cnp.Size = packet.ControlPacketSize
			cnp.Priority = packet.PrioControl
			n.sendControl(cnp)
		}
	}

	numPackets := p.Flow.NumPackets(n.cfg.MTU)
	switch {
	case p.Seq == rf.expected:
		rf.expected++
		n.stats.DeliveredBytes += p.Payload
		if rf.expected == numPackets && !rf.finished {
			rf.finished = true
			p.Flow.FinishTime = now
			n.stats.FlowsCompleted++
			if n.cfg.Recorder != nil {
				n.cfg.Recorder.Record(telemetry.Event{At: now, Kind: telemetry.KindFlowFinish,
					Node: n.ID(), Port: -1, Queue: -1, Flow: p.Flow.ID, Value: int64(p.Flow.Size)})
			}
			if n.cfg.OnFlowComplete != nil {
				n.cfg.OnFlowComplete(p.Flow)
			}
		}
		n.sendAck(p, rf)
	case p.Seq > rf.expected:
		// Out of order: Go-Back-N receivers drop and NACK the expected seq.
		nack := n.pool.Get()
		nack.Kind = packet.Nack
		nack.Flow = p.Flow
		nack.Seq = rf.expected
		nack.Size = packet.ControlPacketSize
		nack.Priority = packet.PrioControl
		n.sendControl(nack)
	default:
		// Duplicate of an already-delivered packet: re-ACK.
		n.sendAck(p, rf)
	}
}

func (n *NIC) sendAck(dataPkt *packet.Packet, rf *receiverFlow) {
	ack := n.pool.Get()
	ack.Kind = packet.Ack
	ack.Flow = dataPkt.Flow
	ack.Seq = rf.expected
	ack.Size = packet.ControlPacketSize
	ack.ECE = dataPkt.ECN
	ack.Priority = packet.PrioControl
	if n.cfg.EchoINT && len(dataPkt.INT) > 0 {
		// Copy (not alias) the telemetry: the data packet is recycled when
		// this handler returns. The ack's own INT backing array is reused.
		ack.INT = append(ack.INT[:0], dataPkt.INT...)
	}
	n.sendControl(ack)
}

func (n *NIC) sendControl(p *packet.Packet) {
	n.ctrlQueue.Push(p)
	n.tryTransmit()
}

// sender returns the live sender record of the flow p belongs to, or nil
// once the flow is fully acknowledged.
func (n *NIC) sender(p *packet.Packet) *senderFlow {
	sf := &n.slabs.senders[p.Flow.SendSlot]
	if sf.flow != p.Flow || sf.completed {
		return nil
	}
	return sf
}

func (n *NIC) receiveAck(p *packet.Packet) {
	sf := n.sender(p)
	if sf == nil {
		return // flow already fully acknowledged
	}
	now := n.sched.Now()
	newly := p.Seq - sf.acked
	if newly > 0 {
		sf.acked = p.Seq
		if sf.nextSeq < sf.acked {
			sf.nextSeq = sf.acked
		}
		sf.ctrl.OnAck(now, units.Bytes(newly)*n.cfg.MTU, p.ECE, p.INT)
	} else {
		sf.ctrl.OnAck(now, 0, p.ECE, p.INT)
	}
	if sf.acked >= sf.numPackets {
		n.finishSender(sf)
	} else {
		sf.rto.Reset(n.cfg.RTO)
	}
	n.tryTransmit()
}

func (n *NIC) receiveNack(p *packet.Packet) {
	sf := n.sender(p)
	if sf == nil {
		return
	}
	if p.Seq > sf.acked {
		sf.acked = p.Seq
	}
	// Go back: resend from the receiver's expected sequence.
	if sf.nextSeq > p.Seq {
		sf.nextSeq = p.Seq
	}
	sf.rto.Reset(n.cfg.RTO)
	n.tryTransmit()
}

func (n *NIC) receiveCNP(p *packet.Packet) {
	sf := n.sender(p)
	if sf == nil {
		return
	}
	sf.ctrl.OnCNP(n.sched.Now())
}

// finishSender retires a fully acknowledged sender: its record stays in the
// slab, marked completed, and leaves the round-robin.
func (n *NIC) finishSender(sf *senderFlow) {
	if sf.completed {
		return
	}
	sf.completed = true
	sf.rto.Stop()
	for i, cur := range n.sendOrder {
		if cur == sf {
			n.sendOrder = append(n.sendOrder[:i], n.sendOrder[i+1:]...)
			break
		}
	}
	if n.rrNext >= len(n.sendOrder) {
		n.rrNext = 0
	}
}
