package core

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/flowtable"
	"bfc/internal/packet"
	"bfc/internal/slab"
	"bfc/internal/units"
)

// PortView is the engine's read-only window onto the switch data path. The
// engine uses it to estimate how fast a physical queue will drain (the
// µ/Nactive term of the pause threshold in §3.4).
type PortView interface {
	// ActiveQueues returns the number of physical data queues at the egress
	// port that are non-empty and not paused by the downstream device.
	ActiveQueues(egress int) int
	// QueuePausedByDownstream reports whether the given physical queue at the
	// egress port is currently paused by the downstream device's filter.
	QueuePausedByDownstream(egress, queue int) bool
	// LinkRate returns the egress link capacity µ.
	LinkRate(egress int) units.Rate
}

// Placement tells the switch where an arriving packet should be enqueued.
type Placement struct {
	// HighPriority places the packet in the unpausable per-egress
	// high-priority queue (§3.7).
	HighPriority bool
	// Overflow places the packet in the per-egress overflow queue: the flow
	// could not get table state (§3.8).
	Overflow bool
	// Queue is the physical data queue index; valid only when neither
	// HighPriority nor Overflow is set.
	Queue int
	// Assigned reports that this arrival assigned Queue to a newly active
	// flow, and Collided that the assignment collided (see
	// Stats.CollidedAssignments). OnDeparture ignores both.
	Assigned, Collided bool
}

// PauseFrame is a bloom-filter pause frame to be sent upstream out of the
// given ingress port.
type PauseFrame struct {
	Ingress int
	// Filter is the ingress port's bloom.Counting snapshot, nil when nothing
	// is paused there. Each frame carries a record of its own, which belongs
	// to the frame: the device that receives it installs it in its
	// UpstreamState, and whoever finds the frame lost puts it back.
	Filter *bloom.Filter
}

// Engine is the per-switch BFC state machine.
type Engine struct {
	cfg      Config
	view     PortView
	numPorts int

	table flowtable.Table

	// egress and ingress are indexed by port; every egress port's queue
	// records are a run of one engine-wide array.
	egress  []egressState
	ingress []ingressState

	// pendingResumes counts the items on every toResume list, so a Tick with
	// none skips the egress walk.
	pendingResumes int
	// resumed is Tick's count of the resumes each physical queue of the port
	// at hand has had this interval (QueuesPerPort long).
	resumed []uint8
	// frames is Tick's result, reused by the next Tick. Tick sends at most
	// one frame per ingress port, so the room carved for it at Init, one
	// per port, is all it ever needs.
	frames []PauseFrame

	stats Stats
}

// egressState is one egress port's share of the engine: 16 B per physical
// queue and one resume list for the port. Which table entries a queue holds
// is not kept; the ResumeAll ablation and Check find them with
// flowtable.(*Table).Each.
type egressState struct {
	// queues is the port's run of the engine's queue records.
	queues []queueState
	// toResume is the port's list of pending resumes (§3.5) in the order they
	// were queued, each naming its physical queue. Tick resumes each queue's
	// earliest resumePerInterval items and keeps the rest in order, which is
	// what one list per queue would do. Its first resumeRoom items have room
	// carved at Init; a longer list grows into an array of its own, which it
	// keeps.
	toResume []resumeItem
}

// resumeRoom is the room for pending resumes carved for each egress port.
const resumeRoom = 4

// queueState is the engine's view of one physical data queue.
type queueState struct {
	// bytes sits in the queue (high-priority and overflow traffic excluded).
	bytes units.Bytes
	// flows counts the active flows assigned to the queue.
	flows int32
	// assigned is Check's count of the table entries assigned to the queue,
	// kept here, in what would be padding, so that Check allocates nothing.
	assigned int32
}

type resumeItem struct {
	vfid  packet.VFID
	queue int32
	// ingress is the port whose counting filter holds the paused VFID.
	ingress int
	// entry is the table entry if it still exists when the resume fires; nil
	// once the flow's last packet has left the switch.
	entry *flowtable.Entry
}

type ingressState struct {
	counting      bloom.Counting
	lastSentEmpty bool
}

// Slabs holds the per-port state of the engines of one shard: egress and
// ingress records per port, a queue record per physical queue, each port's
// first room for pending resumes and for a pause frame, the resume scratch
// of each engine and each flow table's first index, each carved from one
// array, and the one Store the flow tables carve their entries from. Slabs
// are sized once, before the first engine is set up, so setting up a shard's
// engines allocates per array, not per engine, and their first Tick nothing.
type Slabs struct {
	egress  []egressState
	ingress []ingressState
	queues  []queueState
	resumes []resumeItem
	frames  []PauseFrame
	resumed []uint8
	index   []flowtable.Index
	entries flowtable.Store
}

// NewSlabs returns slabs for the given number of engines and their ports in
// total, every port with queuesPerPort physical queues.
func NewSlabs(engines, ports, queuesPerPort int) *Slabs {
	return &Slabs{
		egress:  make([]egressState, ports),
		ingress: make([]ingressState, ports),
		queues:  make([]queueState, ports*queuesPerPort),
		resumes: make([]resumeItem, ports*resumeRoom),
		frames:  make([]PauseFrame, ports),
		resumed: make([]uint8, engines*queuesPerPort),
		index:   make([]flowtable.Index, engines),
	}
}

// Init sets e up in place for a switch with numPorts ports, carving its state
// from slabs. It replaces whatever e held; e must not be copied afterwards,
// since a copy would share its carved state.
func (e *Engine) Init(cfg Config, numPorts int, view PortView, slabs *Slabs) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numPorts <= 0 {
		panic("core: switch needs at least one port")
	}
	if view == nil {
		panic("core: nil PortView")
	}
	q := cfg.QueuesPerPort
	*e = Engine{
		cfg:      cfg,
		view:     view,
		numPorts: numPorts,
		egress:   slab.Carve(&slabs.egress, numPorts),
		ingress:  slab.Carve(&slabs.ingress, numPorts),
		resumed:  slab.Carve(&slabs.resumed, q),
		frames:   slab.Carve(&slabs.frames, numPorts)[:0],
	}
	e.table.Init(cfg.NumVFIDs, &slab.Carve(&slabs.index, 1)[0], &slabs.entries)
	queues := slab.Carve(&slabs.queues, numPorts*q)
	resumes := slab.Carve(&slabs.resumes, numPorts*resumeRoom)
	for i := range e.egress {
		e.egress[i] = egressState{
			queues:   queues[i*q : (i+1)*q : (i+1)*q],
			toResume: resumes[i*resumeRoom : i*resumeRoom : (i+1)*resumeRoom],
		}
		e.ingress[i] = ingressState{counting: *bloom.NewCounting(cfg.Bloom), lastSentEmpty: true}
	}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the engine statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ActiveFlows returns the number of virtual flows with queued packets.
func (e *Engine) ActiveFlows() int { return e.table.Active() }

// PausedVFIDs returns the number of VFIDs registered in the ingress counting
// filters, summed over the ports: the flows this switch holds paused upstream.
func (e *Engine) PausedVFIDs() int {
	n := 0
	for i := range e.ingress {
		n += e.ingress[i].counting.Members()
	}
	return n
}

// Check is the engine's part of the switch term of the run invariants: the
// flow table passes flowtable.(*Table).Check, each physical queue's flow
// count equals the table entries assigned to it, and pendingResumes equals
// the items on the resume lists. It returns the first imbalance.
func (e *Engine) Check() error {
	if err := e.table.Check(); err != nil {
		return err
	}
	for port := range e.egress {
		for i := range e.egress[port].queues {
			e.egress[port].queues[i].assigned = 0
		}
	}
	for ent := range e.table.Each {
		if ent.Queue >= 0 {
			e.egress[ent.Egress].queues[ent.Queue].assigned++
		}
	}
	pending := 0
	for port := range e.egress {
		es := &e.egress[port]
		for i, qs := range es.queues {
			if qs.flows != qs.assigned {
				return fmt.Errorf("core: egress %d queue %d counts %d flows, the table assigns it %d", port, i, qs.flows, qs.assigned)
			}
		}
		pending += len(es.toResume)
	}
	if pending != e.pendingResumes {
		return fmt.Errorf("core: %d resumes pending, the lists hold %d", e.pendingResumes, pending)
	}
	return nil
}

// VFID computes the network-wide virtual flow ID for a flow (§3.3).
func (e *Engine) VFID(f *packet.Flow) packet.VFID { return f.VFIDOf(e.cfg.NumVFIDs) }

// QueueBytes returns the engine's byte accounting for one physical queue,
// which Switch.Audit holds to the queue's FIFO.
func (e *Engine) QueueBytes(egress, queue int) units.Bytes {
	return e.egress[egress].queues[queue].bytes
}

// OnArrival processes a data packet arriving on ingress and destined to
// egress, updates the flow state, decides whether the flow must be paused,
// and returns where the switch should enqueue the packet.
func (e *Engine) OnArrival(now units.Time, ingress, egress int, p *packet.Packet) Placement {
	e.checkPorts(ingress, egress)
	if p.Kind != packet.Data {
		panic("core: OnArrival is only for data packets")
	}
	e.stats.DataPackets++
	vfid := e.VFID(p.Flow)
	es := &e.egress[egress]

	entry := e.table.Lookup(vfid, ingress, egress)
	if entry == nil {
		var res flowtable.InsertResult
		entry, res = e.table.Insert(vfid, ingress, egress)
		if res == flowtable.InsertFailed {
			// No state available: the packet is handled through the overflow
			// queue and the flow cannot be paused (§3.8).
			e.stats.TableOverflowPackets++
			return Placement{Overflow: true}
		}
		if e.table.Active() > e.stats.MaxActiveFlows {
			e.stats.MaxActiveFlows = e.table.Active()
		}
	}
	if entry.Packets > 0 && entry.LastFlow != 0 && entry.LastFlow != p.Flow.ID {
		// A different concrete flow is aliased onto this entry (same VFID,
		// ingress and egress): the switch knowingly treats them as one flow.
		e.stats.VFIDCollisions++
	}
	entry.LastFlow = p.Flow.ID

	// High-priority placement for the first packet of a flow (§3.7): only if
	// the flow is not paused and has nothing else queued here.
	if e.cfg.UseHighPriorityQueue && p.First && !entry.Paused && entry.Packets == 0 {
		entry.Packets++
		entry.Bytes += p.Size
		return Placement{HighPriority: true}
	}

	// Assign a physical queue if the flow does not have one yet.
	pl := Placement{Queue: entry.Queue}
	if entry.Queue < 0 {
		pl.Queue, pl.Collided = e.assignQueue(es, p.Flow)
		pl.Assigned = true
		entry.Queue = pl.Queue
		es.queues[pl.Queue].flows++
	}
	q := pl.Queue
	qs := &es.queues[q]
	entry.Packets++
	entry.Bytes += p.Size
	qs.bytes += p.Size

	// Pause decision (§3.4): pause the flow when its physical queue holds
	// more than Th = (HRTT + τ) · µ / Nactive bytes — the buffering needed to
	// ride out one pause/resume feedback delay at the queue's expected drain
	// rate.
	if !entry.Paused {
		if qs.bytes > e.pauseThreshold(egress, q) {
			entry.Paused = true
			e.ingress[ingress].counting.Add(vfid)
			e.stats.Pauses++
		}
	}
	return pl
}

// assignQueue picks the physical queue for a newly active flow and reports
// whether another active flow already holds it.
func (e *Engine) assignQueue(es *egressState, f *packet.Flow) (q int, collided bool) {
	e.stats.Assignments++
	if e.cfg.DynamicAssignment {
		// Dynamic assignment: prefer an empty physical queue.
		for q, qs := range es.queues {
			if qs.flows == 0 && qs.bytes == 0 {
				return q, false
			}
		}
		// Every queue is occupied: fall back to a "random" queue (§3.3),
		// which is a collision by definition. The draw is the flow hash under
		// the switch's own salt, so switches choose independently of one
		// another, as ECMP does.
		q, collided = int(f.Hash(e.cfg.Salt)%uint64(e.cfg.QueuesPerPort)), true
	} else {
		// Straw proposal (BFC-VFID): static hash, collisions and all.
		q = f.QueueOf(e.cfg.QueuesPerPort)
		collided = es.queues[q].flows > 0
	}
	if collided {
		e.stats.CollidedAssignments++
	}
	return q, collided
}

// pauseThreshold returns Th for a physical queue at the egress port.
func (e *Engine) pauseThreshold(egress, queue int) units.Bytes {
	rate := e.view.LinkRate(egress)
	n := e.view.ActiveQueues(egress)
	// If this queue is itself paused by the downstream device it is excluded
	// from ActiveQueues, but the threshold must be "the desired buffer length
	// it would need if it were not paused" (§3.4), so count it back in.
	if e.view.QueuePausedByDownstream(egress, queue) {
		n++
	}
	if n < 1 {
		n = 1
	}
	return units.BytesInFlight(rate, e.cfg.HRTT+e.cfg.Tau) / units.Bytes(n)
}

// PauseThreshold exposes the §3.4 threshold computation for tests and the
// Fig 10 analysis.
func (e *Engine) PauseThreshold(egress, queue int) units.Bytes {
	e.checkPorts(0, egress)
	return e.pauseThreshold(egress, queue)
}

// OnDeparture processes a data packet leaving the switch (dequeued from the
// egress port for transmission). pl must be the placement returned by the
// matching OnArrival call.
func (e *Engine) OnDeparture(now units.Time, ingress, egress int, pl Placement, p *packet.Packet) {
	e.checkPorts(ingress, egress)
	if pl.Overflow {
		// Stateless packet: nothing to update.
		return
	}
	vfid := e.VFID(p.Flow)
	entry := e.table.Lookup(vfid, ingress, egress)
	if entry == nil {
		panic(fmt.Sprintf("core: departure for unknown flow %v (vfid %d)", p.Flow, vfid))
	}
	es := &e.egress[egress]
	entry.Packets--
	entry.Bytes -= p.Size
	if entry.Packets < 0 || entry.Bytes < 0 {
		panic("core: negative per-flow packet accounting")
	}
	if !pl.HighPriority {
		qs := &es.queues[pl.Queue]
		qs.bytes -= p.Size
		if qs.bytes < 0 {
			panic("core: negative physical-queue byte accounting")
		}
	}

	if entry.Packets == 0 {
		e.retireEntry(es, egress, entry, vfid)
		return
	}

	// §3.4: re-evaluate the pause each time one of the flow's packets is
	// dequeued.
	if entry.Paused && !entry.PendingResume && entry.Queue >= 0 {
		q := entry.Queue
		if es.queues[q].bytes <= e.pauseThreshold(egress, q) {
			if e.cfg.ResumeAll {
				e.resumeQueueFlows(egress, q)
			} else {
				entry.PendingResume = true
				e.queueResume(es, resumeItem{vfid: vfid, queue: int32(q), ingress: entry.Ingress, entry: entry})
			}
		}
	}
}

// retireEntry reclaims the state of a flow whose last packet has left.
func (e *Engine) retireEntry(es *egressState, egress int, entry *flowtable.Entry, vfid packet.VFID) {
	if entry.Queue >= 0 {
		qs := &es.queues[entry.Queue]
		qs.flows--
		if qs.flows < 0 {
			panic("core: negative queue flow count")
		}
	}
	if entry.Paused {
		if e.cfg.ResumeAll {
			e.ingress[entry.Ingress].counting.Remove(vfid)
			e.stats.Resumes++
		} else if !entry.PendingResume {
			// The flow is gone from this switch but its VFID is still marked
			// paused upstream; schedule the resume through the normal
			// throttled path so upstream buffering stays bounded (§3.5).
			q := max(entry.Queue, 0)
			e.queueResume(es, resumeItem{vfid: vfid, queue: int32(q), ingress: entry.Ingress})
		} else {
			// Already on the port's toberesumed list, once: neutralize the
			// stale entry pointer so the resume only clears the filter.
			for i := range es.toResume {
				if es.toResume[i].entry == entry {
					es.toResume[i].entry = nil
					break
				}
			}
		}
	}
	e.table.Remove(entry)
}

// queueResume appends a resume to the port's throttled list (§3.5).
func (e *Engine) queueResume(es *egressState, item resumeItem) {
	es.toResume = append(es.toResume, item)
	e.pendingResumes++
}

// resumeQueueFlows resumes every paused flow assigned to the egress port's
// physical queue q (the ResumeAll ablation).
func (e *Engine) resumeQueueFlows(egress, q int) {
	for ent := range e.table.Each {
		if ent.Egress == egress && ent.Queue == q && ent.Paused && !ent.PendingResume {
			e.ingress[ent.Ingress].counting.Remove(ent.VFID)
			ent.Paused = false
			e.stats.Resumes++
		}
	}
}

// Tick advances the engine by one pause-frame interval τ: it resumes up to
// resumePerInterval flows per physical queue, the earliest queued (§3.5),
// and returns the bloom filter pause frames to transmit upstream, one per
// ingress port whose filter is non-empty or newly empty (§3.6). The switch
// must call Tick every τ.
//
// The returned slice belongs to the engine and is valid until the next Tick;
// the filters it carries are records from filters, each the caller's to send
// or put back (see PauseFrame.Filter).
func (e *Engine) Tick(now units.Time, filters *bloom.Pool) []PauseFrame {
	// Throttled resumes: each port's list is compacted in place, keeping
	// the items of queues that had their resumePerInterval, in order, so its
	// capacity is reused by the next append.
	for i := range e.egress {
		if e.pendingResumes == 0 {
			break
		}
		es := &e.egress[i]
		if len(es.toResume) == 0 {
			continue
		}
		clear(e.resumed)
		kept := es.toResume[:0]
		for _, item := range es.toResume {
			if e.resumed[item.queue] == resumePerInterval {
				kept = append(kept, item)
				continue
			}
			e.resumed[item.queue]++
			e.ingress[item.ingress].counting.Remove(item.vfid)
			e.stats.Resumes++
			if item.entry != nil {
				item.entry.Paused = false
				item.entry.PendingResume = false
			}
		}
		e.pendingResumes -= len(es.toResume) - len(kept)
		clear(es.toResume[len(kept):])
		es.toResume = kept
	}
	// Pause frames.
	e.frames = e.frames[:0]
	for port := range e.ingress {
		is := &e.ingress[port]
		empty := is.counting.Members() == 0
		if empty && is.lastSentEmpty {
			continue // idempotent empty update: nothing to tell upstream
		}
		e.frames = append(e.frames, PauseFrame{Ingress: port, Filter: is.counting.Snapshot(filters)})
		is.lastSentEmpty = empty
	}
	return e.frames
}

// FlowPaused reports whether the engine currently has the given flow marked
// paused (used by tests).
func (e *Engine) FlowPaused(f *packet.Flow, ingress, egress int) bool {
	entry := e.table.Lookup(e.VFID(f), ingress, egress)
	return entry != nil && entry.Paused
}

func (e *Engine) checkPorts(ingress, egress int) {
	if ingress < 0 || ingress >= e.numPorts || egress < 0 || egress >= e.numPorts {
		panic(fmt.Sprintf("core: port out of range (in=%d out=%d of %d)", ingress, egress, e.numPorts))
	}
}

// UpstreamState implements the upstream half of BFC pause signalling: it
// holds the most recent bloom filter received from the downstream device on
// one link and answers, per packet, whether that packet's flow is currently
// paused. The owning device re-checks the head of each physical queue against
// the filter after every packet it sends and whenever a new filter arrives
// (§3.6). The installed filter belongs to the state until Update or Reset
// displaces it and hands it back to the device.
type UpstreamState struct {
	vfidSpace int
	filter    *bloom.Filter
}

// NewUpstreamState creates the per-link upstream pause state. vfidSpace must
// match the network-wide VFID space used by the downstream switches.
func NewUpstreamState(vfidSpace int) *UpstreamState {
	if vfidSpace <= 0 {
		panic("core: vfidSpace must be positive")
	}
	return &UpstreamState{vfidSpace: vfidSpace}
}

// Update installs a newly received filter (nil: nothing paused) in place of
// the previous one and returns the filter it displaced, which the caller
// owns from then on and puts back in its pool.
func (u *UpstreamState) Update(f *bloom.Filter) *bloom.Filter {
	return bloom.Swap(&u.filter, f)
}

// Holds reports whether a filter is installed.
func (u *UpstreamState) Holds() bool { return u.filter != nil }

// PacketPaused reports whether the packet's flow matches the paused set.
func (u *UpstreamState) PacketPaused(p *packet.Packet) bool {
	if p == nil || p.Flow == nil {
		return false
	}
	return u.VFIDPaused(p.Flow.VFIDOf(u.vfidSpace))
}

// VFIDPaused reports whether a pre-computed VFID matches the paused set.
// Senders that cache their flows' VFIDs use this to skip rehashing the
// 5-tuple on every scheduling decision.
func (u *UpstreamState) VFIDPaused(v packet.VFID) bool {
	return u.filter.Contains(v)
}

// Reset clears the stored filter and returns it, as Update does. Devices call
// it on a link state change: after a flap the downstream queue state that
// produced the filter is gone, so starting from "nothing paused" (and letting
// the next periodic frame re-establish reality) is the correct recovery.
func (u *UpstreamState) Reset() *bloom.Filter { return u.Update(nil) }
