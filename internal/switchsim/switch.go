package switchsim

import (
	"fmt"
	"math/rand"

	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/packet"
	"bfc/internal/queue"
	"bfc/internal/slab"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// The queue a dequeued packet came from, so the departure processing can
// reconstruct the BFC placement: an index of the port's DRR (a data queue, or
// NumQueues for overflow) or one of the two classes served ahead of it.
const (
	fromCtrl   = -2
	fromHiPrio = -1
)

// egressPort is the state of one port: its run of the switch's FIFO slab,
// the scheduler over it, its outgoing link, and the per-port scalars of both
// directions (PFC and shared-buffer accounting are per ingress port, the rest
// per egress port).
type egressPort struct {
	// queues is the port's run of the switch's FIFO slab, in the order ctrl,
	// hiPrio, data queues, overflow. drr schedules queues[2:], the data
	// queues and then the overflow queue, which is its index NumQueues; it
	// owns their readiness, so they are pushed to and paused only through it.
	queues []queue.FIFO
	drr    queue.DRR
	link   *netsim.Link

	// sw and index name the port: it is the netsim.Sender its link calls
	// back when a serialization completes (TxDone).
	sw           *Switch
	index        int
	transmitting bool
	// queuedDataBytes counts bytes across hiPrio + data + overflow (not ctrl),
	// used for ECN marking and INT queue-length reporting.
	queuedDataBytes units.Bytes
	// txDataBytes is the cumulative data bytes transmitted (INT).
	txDataBytes units.Bytes

	// ingressBytes is the shared buffer held by packets that arrived on this
	// port; pfcPauseSent marks a PFC pause sent upstream out of it.
	ingressBytes units.Bytes
	pfcPauseSent bool
	// pfcPausedByPeer marks a port whose peer asked us to stop sending data
	// (classic PFC head-of-line blocking).
	pfcPausedByPeer bool

	// upstream holds the most recent BFC filter received from the device
	// downstream of this port (BFC switches only).
	upstream core.UpstreamState
}

func (p *egressPort) ctrl() *queue.FIFO        { return &p.queues[0] }
func (p *egressPort) hiPrio() *queue.FIFO      { return &p.queues[1] }
func (p *egressPort) data(q int) *queue.FIFO   { return &p.queues[2+q] }
func (p *egressPort) dataQueues() []queue.FIFO { return p.queues[2 : len(p.queues)-1] }
func (p *egressPort) overflow() *queue.FIFO    { return &p.queues[len(p.queues)-1] }

// TxDone implements netsim.Sender: the port's link finished serializing, so
// the port may send its next packet.
func (p *egressPort) TxDone() {
	p.transmitting = false
	p.sw.tryTransmit(p.index)
}

// tickTagBase namespaces the causal-origin tags of periodic switch work away
// from flow IDs, so a tick descendant never numerically interleaves with a
// data event's tag on the (vanishingly rare) full-chain tie between them.
const tickTagBase = uint64(1) << 32

// Switch is the simulated shared-buffer switch. It implements netsim.Device
// and core.PortView.
type Switch struct {
	cfg   Config
	sched *eventsim.Scheduler
	rng   *rand.Rand // ECN marking draws; nil until the first (see random)
	// rec receives flight-recorder events; nil disables recording and every
	// emit site guards on that, so the disabled path costs one branch.
	rec telemetry.Recorder

	ports []egressPort

	// bufferUsed is the shared buffer in use, bufferPeak the most it has held.
	bufferUsed, bufferPeak units.Bytes

	// engine is the downstream side of BFC (nil unless BFC is enabled); the
	// upstream side is each port's upstream filter.
	engine *core.Engine

	stats Stats
}

// Slabs holds the state of the switches of one shard, each kind in one
// array: the switches, their ports, the ports' FIFOs, DRR deficits and ready
// words, and under BFC the engines, their tickers and their per-port state.
// Slabs are sized once, before the first switch is built, so building a
// shard's switches allocates per array, not per switch or port.
type Slabs struct {
	switches []Switch
	ports    []egressPort
	fifos    []queue.FIFO
	deficits []units.Bytes
	ready    []uint64
	bfc      []bfcState
	engines  *core.Slabs
}

// bfcState is what BFC adds to a switch: its engine and the ticker that
// runs the engine every τ.
type bfcState struct {
	engine core.Engine
	ticker eventsim.Ticker
}

// portShape returns how many FIFOs a port with numQueues data queues has
// (ctrl, hiPrio, the data queues and overflow), how many of them its DRR
// schedules (all but the first two) and how many words their ready bits take.
func portShape(numQueues int) (fifos, scheduled, words int) {
	fifos = 3 + numQueues
	scheduled = fifos - 2
	return fifos, scheduled, queue.ReadyWords(scheduled)
}

// NewSlabs returns slabs for the given number of switches and their ports in
// total, each built with cfg's queue count and, if cfg enables it, BFC.
func NewSlabs(cfg *Config, switches, ports int) *Slabs {
	perPort, scheduled, words := portShape(cfg.NumQueues)
	sl := &Slabs{
		switches: make([]Switch, switches),
		ports:    make([]egressPort, ports),
		fifos:    make([]queue.FIFO, ports*perPort),
		deficits: make([]units.Bytes, ports*scheduled),
		ready:    make([]uint64, ports*words),
	}
	if cfg.BFC != nil {
		sl.bfc = make([]bfcState, switches)
		sl.engines = core.NewSlabs(switches, ports, cfg.NumQueues)
	}
	return sl
}

// New builds a switch from cfg.Slabs, or from slabs of its own when that is
// nil. Links must be attached (AttachLink) for every port before traffic
// arrives; the sim package does this while wiring the network. A BFC switch
// starts its engine's ticker here, so switches tick in the order they are
// built.
func New(cfg Config) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numPorts := len(cfg.Node.Ports)
	sl := cfg.Slabs
	if sl == nil {
		sl = NewSlabs(&cfg, 1, numPorts)
	}
	s := &slab.Carve(&sl.switches, 1)[0]
	*s = Switch{
		cfg:   cfg,
		sched: cfg.Scheduler,
		rec:   cfg.Recorder,
		ports: slab.Carve(&sl.ports, numPorts),
	}
	// Every port's queues, DRR deficits and ready bits are runs of three
	// shard-wide arrays.
	perPort, scheduled, words := portShape(cfg.NumQueues)
	fifos := slab.Carve(&sl.fifos, numPorts*perPort)
	deficits := slab.Carve(&sl.deficits, numPorts*scheduled)
	ready := slab.Carve(&sl.ready, numPorts*words)
	quantum := cfg.MTU + packet.DataHeaderSize
	for i := range s.ports {
		p := &s.ports[i]
		p.sw, p.index = s, i
		p.queues = fifos[i*perPort : (i+1)*perPort : (i+1)*perPort]
		p.drr.Init(p.queues[2:], quantum,
			deficits[i*scheduled:(i+1)*scheduled:(i+1)*scheduled], ready[i*words:(i+1)*words:(i+1)*words])
	}
	if cfg.BFC != nil {
		bfc := *cfg.BFC
		bfc.QueuesPerPort = cfg.NumQueues
		bfc.HRTT = hopRTT(cfg.Node.Ports, cfg.MTU)
		bfc.Tau = bfc.HRTT / 2
		bfc.Salt = fallbackSalt + uint64(cfg.Node.ID)*packet.Gamma
		b := &slab.Carve(&sl.bfc, 1)[0]
		b.engine.Init(bfc, numPorts, s, sl.engines)
		s.engine = &b.engine
		for i := range s.ports {
			s.ports[i].upstream = *core.NewUpstreamState(bfc.NumVFIDs)
		}
		// Switches whose ports give them the same τ tick on the same
		// arithmetic scheduling chain; the node-ID tag (in its own namespace,
		// clear of flow IDs) is what orders their same-instant pause frames
		// across shard boundaries — matching the serial engine, where tick
		// order follows switch construction order.
		b.ticker.Start(s.sched, bfc.Tau, tickTagBase|uint64(cfg.Node.ID), bfcTick, s)
	}
	return s
}

// fallbackSalt salts the BFC engine's full-port queue draw; each switch adds
// its node ID the way topology.ECMPPick does, so no two switches draw alike.
const fallbackSalt uint64 = 0x46414c4c00000004

// hopRTT is the switch's one-hop round-trip time (§3.4): twice the sum of
// its longest port delay and one MTU-plus-header serialization at its
// slowest port rate. It reads the ports as built; a scenario's SetLinkParams
// does not re-derive it.
func hopRTT(ports []topology.Port, mtu units.Bytes) units.Time {
	var delay units.Time
	var rate units.Rate
	for _, p := range ports {
		delay = max(delay, p.Delay)
		if rate == 0 || p.Rate < rate {
			rate = p.Rate
		}
	}
	return 2 * (delay + units.SerializationTime(mtu+packet.DataHeaderSize, rate))
}

// ID implements netsim.Device.
func (s *Switch) ID() packet.NodeID { return s.cfg.Node.ID }

// AttachLink implements netsim.Device.
func (s *Switch) AttachLink(port int, link *netsim.Link) {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("switchsim: port %d out of range", port))
	}
	s.ports[port].link = link
}

// Link returns the outgoing link for a port (for statistics collection).
func (s *Switch) Link(port int) *netsim.Link { return s.ports[port].link }

// Stats returns a copy of the switch counters.
func (s *Switch) Stats() Stats { return s.stats }

// Engine returns the BFC engine (nil unless BFC is enabled).
func (s *Switch) Engine() *core.Engine { return s.engine }

// HeldFilters returns the number of BFC filters installed in the switch's
// upstream states: records that are in no pool and no frame.
func (s *Switch) HeldFilters() int {
	n := 0
	for i := range s.ports {
		if s.ports[i].upstream.Holds() {
			n++
		}
	}
	return n
}

// Audit is what a switch holds: the data packets in its high-priority, data
// and overflow queues and their bytes, and under BFC its flow-table entries
// and the VFIDs paused in its ingress filters. BufferPeak is the most shared
// buffer it ever held at once.
type Audit struct {
	QueuedPackets, FlowEntries, PausedVFIDs int
	QueuedBytes, BufferPeak                 units.Bytes
}

// Audit counts what the switch holds and checks that its books balance:
// the data packets queued are those that arrived and neither left nor were
// dropped (DataPacketsIn − DataPacketsOut − Drops; a packet with no route is
// dropped before DataPacketsIn counts it), the shared buffer in use is their
// bytes, and under BFC each physical queue's bytes in the engine equal its
// FIFO's and the engine passes core.Engine.Check. It returns the first
// imbalance as the error.
func (s *Switch) Audit() (Audit, error) {
	a := Audit{BufferPeak: s.bufferPeak}
	for i := range s.ports {
		qs := s.ports[i].queues[1:] // every queue but ctrl holds data
		for j := range qs {
			a.QueuedPackets += qs[j].Len()
			a.QueuedBytes += qs[j].Bytes()
		}
	}
	st := &s.stats
	if in := st.DataPacketsIn - st.DataPacketsOut - st.Drops; in != uint64(a.QueuedPackets) {
		return a, fmt.Errorf("switch %d: %d data packets in, %d out, %d dropped, but %d queued", s.ID(), st.DataPacketsIn, st.DataPacketsOut, st.Drops, a.QueuedPackets)
	}
	if s.bufferUsed != a.QueuedBytes {
		return a, fmt.Errorf("switch %d: %d B of shared buffer in use, %d B queued", s.ID(), s.bufferUsed, a.QueuedBytes)
	}
	if s.engine == nil {
		return a, nil
	}
	a.FlowEntries, a.PausedVFIDs = s.engine.ActiveFlows(), s.engine.PausedVFIDs()
	for i := range s.ports {
		for q := range s.cfg.NumQueues {
			if eb, fb := s.engine.QueueBytes(i, q), s.ports[i].data(q).Bytes(); eb != fb {
				return a, fmt.Errorf("switch %d: egress %d queue %d holds %d B, the BFC engine counts %d B", s.ID(), i, q, fb, eb)
			}
		}
	}
	if err := s.engine.Check(); err != nil {
		return a, fmt.Errorf("switch %d: %w", s.ID(), err)
	}
	return a, nil
}

// BufferOccupancy returns the shared buffer bytes currently in use.
func (s *Switch) BufferOccupancy() units.Bytes { return s.bufferUsed }

// DataQueues returns, in one walk over every egress port, the number of
// non-empty physical data queues (Fig 11a) and the bytes of the largest
// (Fig 10).
func (s *Switch) DataQueues() (occupied int, largest units.Bytes) {
	for i := range s.ports {
		qs := s.ports[i].dataQueues()
		for j := range qs {
			if !qs[j].Empty() {
				occupied++
				largest = max(largest, qs[j].Bytes())
			}
		}
	}
	return occupied, largest
}

// core.PortView implementation -------------------------------------------------

// ActiveQueues implements core.PortView from the port's DRR bitmap: the
// serviceable queues of the set, less the overflow queue that rides in it
// after the data queues.
func (s *Switch) ActiveQueues(egress int) int {
	p := &s.ports[egress]
	n := p.drr.ActiveQueues()
	if of := p.overflow(); !of.Empty() && !of.Paused() {
		n--
	}
	return n
}

// QueuePausedByDownstream implements core.PortView.
func (s *Switch) QueuePausedByDownstream(egress, q int) bool {
	return s.ports[egress].data(q).Paused()
}

// LinkRate implements core.PortView.
func (s *Switch) LinkRate(egress int) units.Rate {
	return s.cfg.Node.Ports[egress].Rate
}

// Packet path -------------------------------------------------------------------

// ReceivePacket implements netsim.Device.
func (s *Switch) ReceivePacket(ingress int, p *packet.Packet) {
	now := s.sched.Now()
	p.ArrivalPort = uint16(ingress)
	egress := s.routePort(p)
	if egress < 0 {
		// Transiently unroutable (a scenario just failed this packet's only
		// link onward while it was in flight). The switch is the terminal
		// owner of the drop.
		s.stats.NoRouteDrops++
		if s.rec != nil {
			s.rec.Record(telemetry.Event{At: now, Kind: telemetry.KindNoRouteDrop,
				Node: s.ID(), Port: int32(ingress), Queue: -1, Flow: p.Flow.ID, Value: int64(p.Size)})
		}
		s.cfg.Pool.Put(p)
		return
	}
	port := &s.ports[egress]

	if p.IsControl() {
		// ACK/NACK/CNP travel in the unpausable, undroppable control class.
		port.ctrl().Push(p)
		s.tryTransmit(egress)
		return
	}

	s.stats.DataPacketsIn++

	// Shared-buffer admission. A dropped packet's terminal owner is this
	// switch, so it goes back to the pool here.
	if !s.cfg.InfiniteBuffer && s.bufferUsed+p.Size > s.cfg.BufferSize {
		s.stats.Drops++
		if s.rec != nil {
			s.rec.Record(telemetry.Event{At: now, Kind: telemetry.KindDrop,
				Node: s.ID(), Port: int32(ingress), Queue: -1, Flow: p.Flow.ID, Value: int64(p.Size)})
		}
		s.cfg.Pool.Put(p)
		return
	}
	s.bufferUsed += p.Size
	s.bufferPeak = max(s.bufferPeak, s.bufferUsed)
	s.ports[ingress].ingressBytes += p.Size

	// ECN marking against the egress port occupancy (RED on the instantaneous
	// queue, as in the DCQCN ns-3 model).
	if s.cfg.EnableECN {
		s.maybeMarkECN(port, p)
	}

	// Placement.
	switch {
	case s.engine != nil:
		pl := s.engine.OnArrival(now, ingress, egress, p)
		if s.rec != nil && pl.Assigned {
			collided := int64(0)
			if pl.Collided {
				collided = 1
			}
			s.rec.Record(telemetry.Event{At: now, Kind: telemetry.KindQueueAssign,
				Node: s.ID(), Port: int32(egress), Queue: int32(pl.Queue),
				Flow: p.Flow.ID, Value: collided})
		}
		switch {
		case pl.HighPriority:
			port.hiPrio().Push(p)
		case pl.Overflow:
			port.drr.Push(s.cfg.NumQueues, p)
		default:
			port.drr.Push(pl.Queue, p)
			// The queue's pause state depends on its head packet; if this
			// packet became the head (queue was empty), refresh the state.
			if port.data(pl.Queue).Len() == 1 {
				s.refreshQueuePause(egress, pl.Queue)
			}
		}
	case s.cfg.SFQ:
		port.drr.Push(p.Flow.QueueOf(s.cfg.NumQueues), p)
	default:
		port.drr.Push(0, p)
	}
	port.queuedDataBytes += p.Size

	// PFC toward the upstream device on the ingress link.
	if s.cfg.EnablePFC {
		s.checkPFCPause(ingress)
	}
	s.tryTransmit(egress)
}

// routePort picks the egress port for a packet: data packets route toward the
// flow destination, control packets back toward the flow source, and
// topology.ECMPPick chooses among the equal-cost ports. Returns -1 when the
// destination is currently unreachable (mid-scenario link failure).
func (s *Switch) routePort(p *packet.Packet) int {
	dst := p.Flow.Dst
	if p.Kind != packet.Data {
		dst = p.Flow.Src
	}
	ports := s.cfg.Topo.NextHopsOrNil(s.ID(), dst)
	if len(ports) == 0 {
		return -1
	}
	return topology.ECMPPick(s.ID(), ports, p.Flow)
}

// OnLinkStateChange resets the pause machinery of one port after the attached
// link failed or recovered. Both PFC directions are voided — the pause we
// received (the peer that sent it re-arms from scratch too) and the pause we
// sent (so a recovered peer is not stuck paused forever) — and any BFC filter
// from the old downstream state is cleared. On recovery the thresholds are
// re-evaluated immediately, so still-congested state re-pauses the peer, and
// transmission restarts.
func (s *Switch) OnLinkStateChange(port int, up bool) {
	p := &s.ports[port]
	p.pfcPausedByPeer = false
	if p.link != nil {
		p.link.MarkPaused(false)
	}
	p.pfcPauseSent = false
	if s.engine != nil {
		s.cfg.Filters.Put(p.upstream.Reset())
		for q := 0; q <= s.cfg.NumQueues; q++ {
			s.refreshQueuePause(port, q)
		}
	}
	if up {
		if s.cfg.EnablePFC {
			s.checkPFCPause(port)
		}
		s.tryTransmit(port)
	}
}

// random returns the switch's ECN marking source, seeded Seed + node ID and
// built at the first draw: a source is ~4.9 KB, and a switch without ECN
// (every BFC switch), or whose queues never cross ECNKmin, never draws.
func (s *Switch) random() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.cfg.Seed + int64(s.cfg.Node.ID)))
	}
	return s.rng
}

func (s *Switch) maybeMarkECN(port *egressPort, p *packet.Packet) {
	qlen := port.queuedDataBytes
	switch {
	case qlen <= s.cfg.ECNKmin:
		return
	case qlen >= s.cfg.ECNKmax:
		p.ECN = true
	default:
		prob := s.cfg.ECNPmax * float64(qlen-s.cfg.ECNKmin) / float64(s.cfg.ECNKmax-s.cfg.ECNKmin)
		if s.random().Float64() < prob {
			p.ECN = true
		}
	}
	if p.ECN {
		s.stats.ECNMarks++
	}
}

// PFC -----------------------------------------------------------------------------

// pfcThreshold returns the dynamic per-ingress pause threshold: a fraction of
// the currently free shared buffer.
func (s *Switch) pfcThreshold() units.Bytes {
	free := s.cfg.BufferSize - s.bufferUsed
	if free < 0 {
		free = 0
	}
	return units.Bytes(s.cfg.PFCThresholdFrac * float64(free))
}

func (s *Switch) checkPFCPause(ingress int) {
	in := &s.ports[ingress]
	if in.pfcPauseSent || in.link == nil {
		return
	}
	if in.ingressBytes > s.pfcThreshold() {
		in.pfcPauseSent = true
		s.stats.PFCPausesSent++
		if s.rec != nil {
			s.rec.Record(telemetry.Event{At: s.sched.Now(), Kind: telemetry.KindPFCPause,
				Node: s.ID(), Port: int32(ingress), Queue: -1})
		}
		in.link.SendControl(netsim.PFCFrame{Pause: true})
	}
}

func (s *Switch) checkPFCResume(ingress int) {
	in := &s.ports[ingress]
	if !in.pfcPauseSent || in.link == nil {
		return
	}
	// Resume with a small hysteresis below the (dynamic) threshold so the
	// pause/resume pair does not oscillate per packet.
	th := s.pfcThreshold()
	hysteresis := 2 * (s.cfg.MTU + packet.DataHeaderSize)
	if in.ingressBytes+hysteresis < th || in.ingressBytes == 0 {
		in.pfcPauseSent = false
		if s.rec != nil {
			s.rec.Record(telemetry.Event{At: s.sched.Now(), Kind: telemetry.KindPFCResume,
				Node: s.ID(), Port: int32(ingress), Queue: -1})
		}
		in.link.SendControl(netsim.PFCFrame{Pause: false})
	}
}

// Control frames -------------------------------------------------------------------

// ReceiveControl implements netsim.Device.
func (s *Switch) ReceiveControl(port int, frame netsim.ControlFrame) {
	switch f := frame.(type) {
	case netsim.PFCFrame:
		p := &s.ports[port]
		p.pfcPausedByPeer = f.Pause
		if p.link != nil {
			p.link.MarkPaused(f.Pause)
		}
		if !f.Pause {
			s.tryTransmit(port)
		}
	case netsim.BFCPauseFrame:
		if s.engine == nil {
			s.cfg.Filters.Put(f.Filter) // BFC frames ignored by non-BFC switches
			return
		}
		s.cfg.Filters.Put(s.ports[port].upstream.Update(f.Filter))
		for q := 0; q <= s.cfg.NumQueues; q++ {
			s.refreshQueuePause(port, q)
		}
		s.tryTransmit(port)
	default:
		panic(fmt.Sprintf("switchsim: unknown control frame %T", frame))
	}
}

// refreshQueuePause re-evaluates the pause flag of one physical queue against
// the most recent downstream filter: the queue is paused iff its head packet
// belongs to a paused flow (§3.6). Queue NumQueues is the overflow queue,
// data(NumQueues), and its events report that index.
func (s *Switch) refreshQueuePause(egress, q int) {
	if s.engine == nil {
		return
	}
	port := &s.ports[egress]
	fifo := port.data(q)
	head := fifo.Head()
	paused := head != nil && port.upstream.PacketPaused(head)
	if s.rec != nil && paused != fifo.Paused() {
		kind := telemetry.KindBFCResume
		if paused {
			kind = telemetry.KindBFCPause
		}
		s.rec.Record(telemetry.Event{At: s.sched.Now(), Kind: kind,
			Node: s.ID(), Port: int32(egress), Queue: int32(q)})
	}
	port.drr.SetPaused(q, paused)
}

// bfcTick is the BFC ticker's callback; its argument is the switch.
func bfcTick(a any) { a.(*Switch).tick() }

// tick runs every Tau: advances the engine (throttled resumes) and sends the
// per-ingress bloom-filter pause frames upstream. Tick's slice is the
// engine's and is done with before the next Tick; each frame's filter is a
// record of the switch's pool that the frame takes over, or goes back to the
// pool when the port has no link.
func (s *Switch) tick() {
	frames := s.engine.Tick(s.sched.Now(), s.cfg.Filters)
	for _, fr := range frames {
		link := s.ports[fr.Ingress].link
		if link == nil {
			s.cfg.Filters.Put(fr.Filter)
			continue
		}
		s.stats.BFCFramesSent++
		link.SendControl(netsim.BFCPauseFrame{Filter: fr.Filter})
	}
}

// Egress scheduling ------------------------------------------------------------------

func (s *Switch) tryTransmit(portIdx int) {
	port := &s.ports[portIdx]
	link := port.link
	if link == nil || port.transmitting || link.Busy() {
		return
	}
	p, src := s.selectPacket(portIdx)
	if p == nil {
		return
	}
	s.onDequeue(portIdx, p, src)
	port.transmitting = true
	link.Transmit(p, port)
}

// selectPacket applies the strict-priority + DRR scheduling policy: control
// first (never paused), then — unless the peer PFC-paused us — the BFC
// high-priority queue, then deficit round robin over the data queues and the
// overflow queue, skipping queues whose head is BFC-paused.
func (s *Switch) selectPacket(portIdx int) (*packet.Packet, int) {
	port := &s.ports[portIdx]
	if ctrl := port.ctrl(); !ctrl.Empty() {
		return ctrl.Pop(), fromCtrl
	}
	if port.pfcPausedByPeer {
		return nil, 0
	}
	if hp := port.hiPrio(); !hp.Empty() {
		return hp.Pop(), fromHiPrio
	}
	return port.drr.Dequeue()
}

// onDequeue performs the departure-side bookkeeping for a packet about to be
// transmitted.
func (s *Switch) onDequeue(portIdx int, p *packet.Packet, src int) {
	if src == fromCtrl {
		return
	}
	now := s.sched.Now()
	port := &s.ports[portIdx]
	s.stats.DataPacketsOut++

	// Release shared buffer and per-ingress accounting; possibly resume PFC.
	s.bufferUsed -= p.Size
	ingress := int(p.ArrivalPort)
	in := &s.ports[ingress]
	in.ingressBytes -= p.Size
	if s.bufferUsed < 0 || in.ingressBytes < 0 {
		panic("switchsim: negative buffer accounting")
	}
	port.queuedDataBytes -= p.Size
	if s.cfg.EnablePFC {
		s.checkPFCResume(ingress)
	}

	// BFC departure processing and head re-evaluation.
	if s.engine != nil {
		pl := core.Placement{HighPriority: src == fromHiPrio, Overflow: src == s.cfg.NumQueues, Queue: src}
		s.engine.OnDeparture(now, ingress, portIdx, pl, p)
		if src >= 0 {
			s.refreshQueuePause(portIdx, src)
		}
	}

	// HPCC telemetry: stamp the post-dequeue queue length and cumulative
	// transmitted bytes for this egress port.
	if s.cfg.EnableINT {
		p.INT = append(p.INT, packet.INTHop{
			QLen:    port.queuedDataBytes,
			TxBytes: port.txDataBytes,
			Rate:    s.LinkRate(portIdx),
			TS:      now,
		})
	}
	port.txDataBytes += p.Size
}
