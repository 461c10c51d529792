package core

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/flowtable"
	"bfc/internal/packet"
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
}

// PauseFrame is a bloom-filter pause frame to be sent upstream out of the
// given ingress port.
type PauseFrame struct {
	Ingress int
	// Filter is the ingress port's bloom.Counting snapshot. It is read-only
	// and shared: consecutive frames carry the same *Filter until the pause
	// set changes, and upstream devices (on any shard) keep it as received.
	Filter *bloom.Filter
}

// Engine is the per-switch BFC state machine.
type Engine struct {
	cfg      Config
	view     PortView
	numPorts int

	table *flowtable.Table

	// egress and ingress are indexed by port; every egress port's
	// per-queue counters and lists are carved from engine-wide arrays.
	egress  []egressState
	ingress []ingressState

	// pendingResumes counts the items on every toResume list, so a Tick with
	// none skips the egress × queue walk.
	pendingResumes int
	// frames is Tick's result, reused by the next Tick.
	frames []PauseFrame

	stats Stats
}

type egressState struct {
	// flowsPerQueue counts active flows assigned to each physical queue.
	flowsPerQueue []int
	// bytesPerQueue is the engine's view of bytes sitting in each physical
	// data queue (excludes high-priority and overflow traffic).
	bytesPerQueue []units.Bytes
	// entriesPerQueue lists the active table entries assigned to each queue
	// (needed by the ResumeAll ablation and by diagnostics).
	entriesPerQueue [][]*flowtable.Entry
	// toResume is the per-queue FIFO of pending resumes (§3.5).
	toResume [][]resumeItem
}

type resumeItem struct {
	vfid    packet.VFID
	ingress int
	// entry is the table entry if it still exists when the resume fires; nil
	// once the flow's last packet has left the switch.
	entry *flowtable.Entry
}

type ingressState struct {
	counting      bloom.Counting
	lastSentEmpty bool
}

// NewEngine creates an engine for a switch with numPorts ports.
func NewEngine(cfg Config, numPorts int, view PortView) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if numPorts <= 0 {
		panic("core: switch needs at least one port")
	}
	if view == nil {
		panic("core: nil PortView")
	}
	e := &Engine{
		cfg:      cfg,
		view:     view,
		numPorts: numPorts,
		table:    flowtable.New(cfg.NumVFIDs, cfg.BucketSize, cfg.OverflowCacheSize),
		egress:   make([]egressState, numPorts),
		ingress:  make([]ingressState, numPorts),
	}
	q := cfg.QueuesPerPort
	flows := make([]int, numPorts*q)
	bytes := make([]units.Bytes, numPorts*q)
	entries := make([][]*flowtable.Entry, numPorts*q)
	resumes := make([][]resumeItem, numPorts*q)
	for i := range e.egress {
		lo, hi := i*q, (i+1)*q
		e.egress[i] = egressState{
			flowsPerQueue:   flows[lo:hi:hi],
			bytesPerQueue:   bytes[lo:hi:hi],
			entriesPerQueue: entries[lo:hi:hi],
			toResume:        resumes[lo:hi:hi],
		}
		e.ingress[i] = ingressState{counting: *bloom.NewCounting(cfg.Bloom), lastSentEmpty: true}
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the engine statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ActiveFlows returns the number of virtual flows with queued packets.
func (e *Engine) ActiveFlows() int { return e.table.Active() }

// VFID computes the network-wide virtual flow ID for a flow (§3.3).
func (e *Engine) VFID(f *packet.Flow) packet.VFID { return f.VFIDOf(e.cfg.NumVFIDs) }

// QueueBytes returns the engine's byte accounting for one physical queue
// (used by tests and the Fig 10 experiment).
func (e *Engine) QueueBytes(egress, queue int) units.Bytes {
	return e.egress[egress].bytesPerQueue[queue]
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
	if entry.Queue < 0 {
		q := e.assignQueue(es, p.Flow, egress)
		entry.Queue = q
		es.flowsPerQueue[q]++
		es.entriesPerQueue[q] = append(es.entriesPerQueue[q], entry)
	}
	q := entry.Queue
	entry.Packets++
	entry.Bytes += p.Size
	es.bytesPerQueue[q] += p.Size

	// Pause decision (§3.4): pause the flow when its physical queue holds
	// more than Th = (HRTT + τ) · µ / Nactive bytes — the buffering needed to
	// ride out one pause/resume feedback delay at the queue's expected drain
	// rate.
	if !entry.Paused {
		if es.bytesPerQueue[q] > e.pauseThreshold(egress, q) {
			entry.Paused = true
			e.ingress[ingress].counting.Add(vfid)
			e.stats.Pauses++
		}
	}
	return Placement{Queue: q}
}

// assignQueue picks the physical queue for a newly active flow.
func (e *Engine) assignQueue(es *egressState, f *packet.Flow, egress int) int {
	e.stats.Assignments++
	if !e.cfg.DynamicAssignment {
		// Straw proposal (BFC-VFID): static hash, collisions and all.
		q := f.QueueOf(e.cfg.QueuesPerPort)
		if es.flowsPerQueue[q] > 0 {
			e.stats.CollidedAssignments++
		}
		return q
	}
	// Dynamic assignment: prefer an empty physical queue.
	for q, n := range es.flowsPerQueue {
		if n == 0 && es.bytesPerQueue[q] == 0 {
			return q
		}
	}
	// Every queue is occupied: fall back to a "random" queue (§3.3), which is
	// a collision by definition. The draw is the flow hash under the switch's
	// own salt, so switches choose independently of one another, as ECMP does.
	e.stats.CollidedAssignments++
	return int(f.Hash(e.cfg.Salt) % uint64(e.cfg.QueuesPerPort))
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
		es.bytesPerQueue[pl.Queue] -= p.Size
		if es.bytesPerQueue[pl.Queue] < 0 {
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
		if es.bytesPerQueue[q] <= e.pauseThreshold(egress, q) {
			if e.cfg.ResumeAll {
				e.resumeQueueFlows(es, q)
			} else {
				entry.PendingResume = true
				e.queueResume(es, q, resumeItem{vfid: vfid, ingress: entry.Ingress, entry: entry})
			}
		}
	}
}

// retireEntry reclaims the state of a flow whose last packet has left.
func (e *Engine) retireEntry(es *egressState, egress int, entry *flowtable.Entry, vfid packet.VFID) {
	if entry.Queue >= 0 {
		q := entry.Queue
		es.flowsPerQueue[q]--
		if es.flowsPerQueue[q] < 0 {
			panic("core: negative queue flow count")
		}
		es.entriesPerQueue[q] = removeEntry(es.entriesPerQueue[q], entry)
	}
	if entry.Paused {
		if e.cfg.ResumeAll {
			e.ingress[entry.Ingress].counting.Remove(vfid)
			e.stats.Resumes++
		} else if !entry.PendingResume {
			// The flow is gone from this switch but its VFID is still marked
			// paused upstream; schedule the resume through the normal
			// throttled path so upstream buffering stays bounded (§3.5).
			q := entry.Queue
			if q < 0 {
				q = 0
			}
			e.queueResume(es, q, resumeItem{vfid: vfid, ingress: entry.Ingress, entry: nil})
		} else {
			// Already on the toberesumed list: neutralize the stale entry
			// pointer so the resume only clears the filter.
			for qi := range es.toResume {
				for i := range es.toResume[qi] {
					if es.toResume[qi][i].entry == entry {
						es.toResume[qi][i].entry = nil
					}
				}
			}
		}
	}
	e.table.Remove(entry)
}

// queueResume appends a resume to queue q's throttled list (§3.5).
func (e *Engine) queueResume(es *egressState, q int, item resumeItem) {
	es.toResume[q] = append(es.toResume[q], item)
	e.pendingResumes++
}

// resumeQueueFlows resumes every paused flow assigned to the queue (the
// ResumeAll ablation).
func (e *Engine) resumeQueueFlows(es *egressState, q int) {
	for _, ent := range es.entriesPerQueue[q] {
		if ent.Paused && !ent.PendingResume {
			e.ingress[ent.Ingress].counting.Remove(ent.VFID)
			ent.Paused = false
			e.stats.Resumes++
		}
	}
}

// Tick advances the engine by one pause-frame interval τ: it resumes up to
// ResumePerInterval flows per physical queue (§3.5) and returns the bloom
// filter pause frames to transmit upstream, one per ingress port whose filter
// is non-empty or newly empty (§3.6). The switch must call Tick every τ.
//
// The returned slice belongs to the engine and is valid until the next Tick;
// the filters it carries are shared snapshots (see PauseFrame.Filter).
func (e *Engine) Tick(now units.Time) []PauseFrame {
	// Throttled resumes, each list popped in place so its capacity is reused
	// by the next append.
	for i := range e.egress {
		if e.pendingResumes == 0 {
			break
		}
		es := &e.egress[i]
		for q, list := range es.toResume {
			n := min(e.cfg.ResumePerInterval, len(list))
			if n == 0 {
				continue
			}
			for _, item := range list[:n] {
				e.ingress[item.ingress].counting.Remove(item.vfid)
				e.stats.Resumes++
				if item.entry != nil {
					item.entry.Paused = false
					item.entry.PendingResume = false
				}
			}
			rest := copy(list, list[n:])
			clear(list[rest:])
			es.toResume[q] = list[:rest]
			e.pendingResumes -= n
		}
	}
	// Pause frames.
	e.frames = e.frames[:0]
	for port := range e.ingress {
		is := &e.ingress[port]
		empty := is.counting.Members() == 0
		if empty && is.lastSentEmpty {
			continue // idempotent empty update: nothing to tell upstream
		}
		e.frames = append(e.frames, PauseFrame{Ingress: port, Filter: is.counting.Snapshot()})
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

func removeEntry(s []*flowtable.Entry, e *flowtable.Entry) []*flowtable.Entry {
	for i, cur := range s {
		if cur == e {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// UpstreamState implements the upstream half of BFC pause signalling: it
// stores the most recent bloom filter received from the downstream device on
// one link and answers, per packet, whether that packet's flow is currently
// paused. The owning device re-checks the head of each physical queue against
// the filter after every packet it sends and whenever a new filter arrives
// (§3.6).
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

// Update installs a newly received filter (replacing the previous one).
func (u *UpstreamState) Update(f *bloom.Filter) {
	u.filter = f
}

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
	return u.filter != nil && u.filter.Contains(v)
}

// Reset clears the stored filter. Devices call it on a link state change:
// after a flap the downstream queue state that produced the filter is gone,
// so starting from "nothing paused" (and letting the next periodic frame
// re-establish reality) is the correct recovery.
func (u *UpstreamState) Reset() { u.filter = nil }
