// Package queue provides the FIFO packet queues and the deficit-round-robin
// (DRR) scheduler used by the simulated switch egress ports and NICs.
//
// A switch egress port owns a fixed set of physical FIFO queues plus the
// special classes (control, high-priority, overflow). The scheduler serves
// classes in strict priority order and uses DRR among the data queues, which
// approximates fair queueing at packet granularity (§3.3 of the paper assumes
// deficit round robin among physical queues). Queues can be individually
// paused; paused queues are skipped by the scheduler without affecting other
// queues.
//
// The scheduler owns readiness: a DRR keeps its own bitmap of which of its
// queues are non-empty and unpaused, and its queues hold no pointer back to
// it. So a scheduled queue is pushed to and paused only through its DRR
// (DRR.Push, DRR.SetPaused) and popped only by DRR.Dequeue; a FIFO is 32 B.
package queue

import (
	"math/bits"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// FIFO is a first-in first-out packet queue with byte accounting and a pause
// flag. It links its packets in place (packet.Enqueue), so pushing and
// popping never allocate, and a packet is in at most one FIFO at a time. The
// zero value is an empty queue, so a device may carve its queues out of one
// []FIFO; a FIFO must not be copied once in use. A queue a DRR schedules is
// pushed to and paused only through that DRR (see the package doc).
type FIFO struct {
	head, tail *packet.Packet
	bytes      units.Bytes
	n          int32
	paused     bool
}

// Push appends a packet. It panics if p is nil or already in a queue; a nil p
// faults in packet.Enqueue, since a check of its own would push DRR.Push over
// the inliner's budget.
func (q *FIFO) Push(p *packet.Packet) {
	p.Enqueue(q.tail)
	if q.head == nil {
		q.head = p
	}
	q.tail = p
	q.n++
	q.bytes += p.Size
}

// Pop removes and returns the packet at the head, or nil if empty.
func (q *FIFO) Pop() *packet.Packet {
	p := q.head
	if p == nil {
		return nil
	}
	q.head = p.Dequeue()
	q.n--
	q.bytes -= p.Size
	if q.head == nil {
		q.tail = nil
	}
	return p
}

// Head returns the packet at the head without removing it, or nil.
func (q *FIFO) Head() *packet.Packet { return q.head }

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return int(q.n) }

// Bytes returns the total queued bytes.
func (q *FIFO) Bytes() units.Bytes { return q.bytes }

// Empty reports whether the queue has no packets.
func (q *FIFO) Empty() bool { return q.head == nil }

// Paused reports the pause flag, which only the queue's DRR sets.
func (q *FIFO) Paused() bool { return q.paused }

// DRR schedules packets from a set of FIFO queues using deficit round robin
// with a configurable quantum. Empty and paused queues are skipped. DRR is
// work conserving: if any serviceable queue has a packet, Dequeue returns
// one. The zero value is set up by Init, so a device may keep its schedulers
// by value.
type DRR struct {
	queues   []FIFO
	deficits []units.Bytes
	quantum  units.Bytes
	next     int  // round-robin position
	credited bool // whether the current visit to queues[next] already received its quantum

	// ready is the serviceability bitmap: bit i is set exactly when
	// queues[i] is non-empty and not paused. Push, SetPaused and Dequeue
	// keep it, so ActiveQueues — called on every BFC pause-threshold
	// computation — reads a couple of words instead of dereferencing every
	// queue, and Dequeue jumps the pointer from set bit to set bit.
	ready []uint64
}

// ReadyWords is the length of the ready bitmap Init needs for n queues.
func ReadyWords(n int) int { return (n + 63) / 64 }

// Init sets d up to schedule queues, a contiguous run of FIFOs, with the
// given quantum. deficits (len(queues) long, zeroed) and ready
// (ReadyWords(len(queues)) long, zeroed) are the scheduler's working storage:
// a device carves them, like the queues, out of arrays shared by all its
// ports. The quantum should be at least the MTU so every visit can send at
// least one packet. Queues may hold packets already; from Init on they are
// pushed to and paused only through d.
func (d *DRR) Init(queues []FIFO, quantum units.Bytes, deficits []units.Bytes, ready []uint64) {
	if quantum <= 0 {
		panic("queue: DRR quantum must be positive")
	}
	if len(queues) == 0 {
		panic("queue: DRR needs at least one queue")
	}
	if len(deficits) != len(queues) || len(ready) != ReadyWords(len(queues)) {
		panic("queue: DRR storage does not match its queues")
	}
	*d = DRR{queues: queues, deficits: deficits, quantum: quantum, ready: ready}
	for i := range queues {
		if q := &queues[i]; !q.Empty() && !q.Paused() {
			d.setReady(i)
		}
	}
}

// Push appends p to queue i, which becomes ready if it was empty and is not
// paused. It reads the head before the push and sets the bit by hand, not
// through setReady, to stay inlinable on the switch's packet path.
func (d *DRR) Push(i int, p *packet.Packet) {
	q := &d.queues[i]
	if q.head == nil && !q.paused {
		d.ready[i>>6] |= 1 << (uint(i) & 63)
	}
	q.Push(p)
}

// SetPaused sets queue i's pause flag. A paused queue is skipped by the
// scheduler and does not count in ActiveQueues.
func (d *DRR) SetPaused(i int, paused bool) {
	q := &d.queues[i]
	q.paused = paused
	if q.head == nil {
		return
	}
	if paused {
		d.clearReady(i)
	} else {
		d.setReady(i)
	}
}

func (d *DRR) setReady(i int)   { d.ready[i>>6] |= 1 << (uint(i) & 63) }
func (d *DRR) clearReady(i int) { d.ready[i>>6] &^= 1 << (uint(i) & 63) }

// ActiveQueues returns the number of queues that are non-empty and not
// paused. BFC uses this as Nactive in its pause-threshold computation.
func (d *DRR) ActiveQueues() int {
	n := 0
	for _, w := range d.ready {
		n += bits.OnesCount64(w)
	}
	return n
}

// Dequeue returns the next packet to transmit and the index of the queue it
// came from. It returns (nil, -1) when no queue is serviceable.
//
// The implementation follows classic DRR: visit queues round-robin; on each
// visit add the quantum to the queue's deficit and send packets while the
// head packet fits in the deficit. Because the simulator transmits one packet
// per call (the egress port serializes packets one at a time), the deficit
// state persists across calls: a queue keeps being served on subsequent
// calls until its deficit is exhausted or it empties.
//
// The pointer never visits an empty or paused queue: skipTo jumps it to the
// next set bit of ready, so a call costs the bitmap words it reads plus the
// deficits it clears, not the number of configured queues.
func (d *DRR) Dequeue() (*packet.Packet, int) {
	// A serviceable queue gains one quantum per round, so a head packet of
	// size S becomes sendable within ceil(S/quantum) rounds. Callers use a
	// quantum of at least the MTU, so 32 rounds is far beyond any real case;
	// the bound on serviced visits only exists to turn a scheduler bug into a
	// loud failure.
	for visits := 0; visits < 32*len(d.queues); visits++ {
		i := d.skipTo()
		if i < 0 {
			return nil, -1
		}
		q := &d.queues[i]
		// Grant the quantum once per visit, when the round-robin pointer
		// arrives at the queue; the queue is then served packet by packet
		// across subsequent Dequeue calls until its deficit runs out.
		if !d.credited {
			d.deficits[i] += d.quantum
			d.credited = true
		}
		head := q.Head()
		if d.deficits[i] >= head.Size {
			d.deficits[i] -= head.Size
			p := q.Pop()
			if q.Empty() {
				d.clearReady(i)
				d.deficits[i] = 0
				d.advance()
			}
			return p, i
		}
		// Deficit exhausted for this visit (or the packet needs more than one
		// quantum); move on and let credit build on later rounds.
		d.advance()
	}
	// Unreachable when quantum > 0 and some queue is serviceable, because
	// deficits grow by quantum per visit; guard against bugs.
	panic("queue: DRR failed to make progress")
}

// skipTo moves the round-robin pointer to the first serviceable queue at or
// after it, wrapping, and returns that queue's index, or -1 when none is
// serviceable. It leaves the state a one-queue-at-a-time walk would leave:
// every queue passed over has its deficit zeroed (inactive queues do not
// accumulate credit) and a moved pointer starts a fresh visit.
//
// The deficits are cleared here, when the pointer passes, rather than when a
// queue stops being serviceable: a queue paused while it holds leftover
// credit and resumed before the pointer comes back keeps that credit, and
// zeroing it on the transition would change which packet goes next.
func (d *DRR) skipTo() int {
	i := d.next
	j := d.nextReady(i)
	if j == i || j < 0 {
		return j
	}
	if j > i {
		clear(d.deficits[i:j])
	} else {
		clear(d.deficits[i:])
		clear(d.deficits[:j])
	}
	d.next, d.credited = j, false
	return j
}

// nextReady returns the first index at or after i whose ready bit is set,
// wrapping past the last queue to the first, or -1 when no bit is set.
func (d *DRR) nextReady(i int) int {
	w := i >> 6
	if b := d.ready[w] >> (uint(i) & 63); b != 0 {
		return i + bits.TrailingZeros64(b)
	}
	// The last step wraps back to word w, whose bits at or above i are known
	// clear, so it finds the ones below i.
	for k := 1; k <= len(d.ready); k++ {
		w++
		if w == len(d.ready) {
			w = 0
		}
		if b := d.ready[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// advance moves the round-robin pointer to the next queue and forgets the
// per-visit credit marker.
func (d *DRR) advance() {
	d.next++
	if d.next == len(d.queues) {
		d.next = 0
	}
	d.credited = false
}
