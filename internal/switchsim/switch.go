package switchsim

import (
	"fmt"
	"math/rand"

	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/packet"
	"bfc/internal/queue"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// popSource identifies which class a dequeued packet came from, so the
// departure processing can reconstruct the BFC placement.
type popSource struct {
	ctrl     bool
	highPrio bool
	overflow bool
	queue    int
}

// egressPort is the state of one port: its run of the switch's FIFO slab,
// the scheduler over it, its outgoing link, and the per-port scalars of both
// directions (PFC and shared-buffer accounting are per ingress port, the rest
// per egress port).
type egressPort struct {
	// queues is the port's run of the switch's FIFO slab, in the order ctrl,
	// hiPrio, data queues, overflow. drr schedules queues[2:], the data
	// queues and then the overflow queue, which is its index NumQueues.
	queues []queue.FIFO
	drr    queue.DRR
	link   *netsim.Link

	transmitting bool
	// onTxDone is the serialization-complete callback handed to the link,
	// allocated once per port so transmission creates no per-packet closures.
	onTxDone func()
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

	// bufferUsed is the shared buffer in use.
	bufferUsed units.Bytes

	// engine is the downstream side of BFC (nil unless BFC is enabled); the
	// upstream side is each port's upstream filter.
	engine *core.Engine

	stats Stats
}

// New creates a switch. Links must be attached (AttachLink) for every port
// before traffic arrives; the sim package does this while wiring the network.
func New(cfg Config) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numPorts := len(cfg.Node.Ports)
	s := &Switch{
		cfg:   cfg,
		sched: cfg.Scheduler,
		rec:   cfg.Recorder,
		ports: make([]egressPort, numPorts),
	}
	// Every port's queues, DRR deficits and ready bits are runs of three
	// switch-wide arrays.
	perPort := 3 + cfg.NumQueues
	scheduled := perPort - 2
	words := queue.ReadyWords(scheduled)
	fifos := make([]queue.FIFO, numPorts*perPort)
	deficits := make([]units.Bytes, numPorts*scheduled)
	ready := make([]uint64, numPorts*words)
	quantum := cfg.MTU + packet.DataHeaderSize
	for i := range s.ports {
		p := &s.ports[i]
		p.queues = fifos[i*perPort : (i+1)*perPort : (i+1)*perPort]
		p.drr.Init(p.queues[2:], quantum,
			deficits[i*scheduled:(i+1)*scheduled:(i+1)*scheduled], ready[i*words:(i+1)*words:(i+1)*words])
		portIdx := i
		p.onTxDone = func() {
			p.transmitting = false
			s.tryTransmit(portIdx)
		}
	}
	if cfg.BFC != nil {
		bfc := *cfg.BFC
		bfc.HRTT = hopRTT(cfg.Node.Ports, cfg.MTU)
		bfc.Tau = bfc.HRTT / 2
		bfc.Salt = fallbackSalt + uint64(cfg.Node.ID)*packet.Gamma
		s.engine = core.NewEngine(bfc, numPorts, s)
		for i := range s.ports {
			s.ports[i].upstream = *core.NewUpstreamState(bfc.NumVFIDs)
		}
		// Switches whose ports give them the same τ tick on the same
		// arithmetic scheduling chain; the node-ID tag (in its own namespace,
		// clear of flow IDs) is what orders their same-instant pause frames
		// across shard boundaries — matching the serial engine, where tick
		// order follows switch construction order.
		eventsim.NewTickerTagged(s.sched, bfc.Tau, tickTagBase|uint64(cfg.Node.ID), s.bfcTick)
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

// BufferOccupancy returns the shared buffer bytes currently in use.
func (s *Switch) BufferOccupancy() units.Bytes { return s.bufferUsed }

// OccupiedDataQueues returns the number of non-empty physical data queues
// across all egress ports (Fig 11a).
func (s *Switch) OccupiedDataQueues() int {
	n := 0
	for i := range s.ports {
		qs := s.ports[i].dataQueues()
		for j := range qs {
			if !qs[j].Empty() {
				n++
			}
		}
	}
	return n
}

// MaxPhysicalQueueBytes returns the largest per-physical-queue byte count
// across the switch (Fig 10).
func (s *Switch) MaxPhysicalQueueBytes() units.Bytes {
	var max units.Bytes
	for i := range s.ports {
		qs := s.ports[i].dataQueues()
		for j := range qs {
			if b := qs[j].Bytes(); b > max {
				max = b
			}
		}
	}
	return max
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
	p.ArrivalPort = ingress
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
	if s.bufferUsed > s.stats.MaxBufferUsed {
		s.stats.MaxBufferUsed = s.bufferUsed
	}
	s.ports[ingress].ingressBytes += p.Size

	// ECN marking against the egress port occupancy (RED on the instantaneous
	// queue, as in the DCQCN ns-3 model).
	if s.cfg.EnableECN {
		s.maybeMarkECN(port, p)
	}

	// Placement.
	switch {
	case s.engine != nil:
		var prevAssignments, prevCollided uint64
		if s.rec != nil {
			es := s.engine.Stats()
			prevAssignments, prevCollided = es.Assignments, es.CollidedAssignments
		}
		pl := s.engine.OnArrival(now, ingress, egress, p)
		if s.rec != nil {
			// A stats delta means the engine assigned a queue to a newly
			// active flow on this arrival.
			if es := s.engine.Stats(); es.Assignments > prevAssignments {
				collided := int64(0)
				if es.CollidedAssignments > prevCollided {
					collided = 1
				}
				s.rec.Record(telemetry.Event{At: now, Kind: telemetry.KindQueueAssign,
					Node: s.ID(), Port: int32(egress), Queue: int32(pl.Queue),
					Flow: p.Flow.ID, Value: collided})
			}
		}
		switch {
		case pl.HighPriority:
			port.hiPrio().Push(p)
		case pl.Overflow:
			port.overflow().Push(p)
		default:
			q := port.data(pl.Queue)
			q.Push(p)
			// The queue's pause state depends on its head packet; if this
			// packet became the head (queue was empty), refresh the state.
			if q.Len() == 1 {
				s.refreshQueuePause(egress, pl.Queue)
			}
		}
	case s.cfg.SFQ:
		port.data(p.Flow.QueueOf(s.cfg.NumQueues)).Push(p)
	default:
		port.data(0).Push(p)
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
		p.upstream.Reset()
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
			return // BFC frames ignored by non-BFC switches
		}
		s.ports[port].upstream.Update(f.Filter)
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
	fifo.SetPaused(paused)
}

// bfcTick runs every Tau: advances the engine (throttled resumes) and sends
// the per-ingress bloom-filter pause frames upstream. Tick's slice is the
// engine's and is done with before the next Tick; the filters are shared,
// read-only snapshots, so the frames carry the pointers as they are.
func (s *Switch) bfcTick() {
	frames := s.engine.Tick(s.sched.Now())
	for _, fr := range frames {
		link := s.ports[fr.Ingress].link
		if link == nil {
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
	link.Transmit(p, port.onTxDone)
}

// selectPacket applies the strict-priority + DRR scheduling policy: control
// first (never paused), then — unless the peer PFC-paused us — the BFC
// high-priority queue, then deficit round robin over the data queues and the
// overflow queue, skipping queues whose head is BFC-paused.
func (s *Switch) selectPacket(portIdx int) (*packet.Packet, popSource) {
	port := &s.ports[portIdx]
	if ctrl := port.ctrl(); !ctrl.Empty() {
		return ctrl.Pop(), popSource{ctrl: true}
	}
	if port.pfcPausedByPeer {
		return nil, popSource{}
	}
	if hp := port.hiPrio(); !hp.Empty() {
		return hp.Pop(), popSource{highPrio: true}
	}
	p, idx := port.drr.Dequeue()
	if p == nil {
		return nil, popSource{}
	}
	if idx == s.cfg.NumQueues {
		return p, popSource{overflow: true}
	}
	return p, popSource{queue: idx}
}

// onDequeue performs the departure-side bookkeeping for a packet about to be
// transmitted.
func (s *Switch) onDequeue(portIdx int, p *packet.Packet, src popSource) {
	if src.ctrl {
		return
	}
	now := s.sched.Now()
	port := &s.ports[portIdx]
	s.stats.DataPacketsOut++

	// Release shared buffer and per-ingress accounting; possibly resume PFC.
	s.bufferUsed -= p.Size
	in := &s.ports[p.ArrivalPort]
	in.ingressBytes -= p.Size
	if s.bufferUsed < 0 || in.ingressBytes < 0 {
		panic("switchsim: negative buffer accounting")
	}
	port.queuedDataBytes -= p.Size
	if s.cfg.EnablePFC {
		s.checkPFCResume(p.ArrivalPort)
	}

	// BFC departure processing and head re-evaluation.
	if s.engine != nil {
		pl := core.Placement{HighPriority: src.highPrio, Overflow: src.overflow, Queue: src.queue}
		s.engine.OnDeparture(now, p.ArrivalPort, portIdx, pl, p)
		if src.overflow {
			s.refreshQueuePause(portIdx, s.cfg.NumQueues)
		} else if !src.highPrio {
			s.refreshQueuePause(portIdx, src.queue)
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
