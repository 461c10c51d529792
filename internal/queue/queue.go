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
package queue

import (
	"math/bits"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// FIFO is a first-in first-out packet queue with byte accounting and a pause
// flag. The zero value is an empty queue, so a device may carve its queues
// out of one []FIFO; a FIFO must not be copied once in use.
type FIFO struct {
	packets []*packet.Packet
	head    int
	bytes   units.Bytes
	paused  bool

	// drr and idx wire the queue into its scheduler's serviceability bitmap
	// (set by NewDRR, nil for standalone queues): the queue reports its
	// non-empty/unpaused transitions so the scheduler finds serviceable queues
	// and answers ActiveQueues from the bitmap instead of scanning every queue.
	drr *DRR
	idx int

	// MaxBytes is the high-water mark of queued bytes (diagnostics).
	MaxBytes units.Bytes
}

// NewFIFO returns an empty queue.
func NewFIFO() *FIFO { return &FIFO{} }

// Push appends a packet.
func (q *FIFO) Push(p *packet.Packet) {
	if p == nil {
		panic("queue: pushing nil packet")
	}
	q.packets = append(q.packets, p)
	q.bytes += p.Size
	if q.bytes > q.MaxBytes {
		q.MaxBytes = q.bytes
	}
	if q.drr != nil && !q.paused && q.Len() == 1 {
		q.drr.setReady(q.idx)
	}
}

// Pop removes and returns the packet at the head, or nil if empty.
func (q *FIFO) Pop() *packet.Packet {
	if q.Len() == 0 {
		return nil
	}
	p := q.packets[q.head]
	q.packets[q.head] = nil
	q.head++
	q.bytes -= p.Size
	if q.head == len(q.packets) {
		// Drained: rewind to the front of the backing array, so a queue that
		// never holds more than a packet or two never grows one.
		q.packets, q.head = q.packets[:0], 0
		if q.drr != nil {
			q.drr.clearReady(q.idx)
		}
	} else if q.head > 64 && q.head*2 >= len(q.packets) {
		// Compact once the dead prefix dominates, keeping amortized O(1) pops
		// without unbounded growth.
		q.packets = append(q.packets[:0], q.packets[q.head:]...)
		q.head = 0
	}
	return p
}

// Head returns the packet at the head without removing it, or nil.
func (q *FIFO) Head() *packet.Packet {
	if q.Len() == 0 {
		return nil
	}
	return q.packets[q.head]
}

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return len(q.packets) - q.head }

// Bytes returns the total queued bytes.
func (q *FIFO) Bytes() units.Bytes { return q.bytes }

// Empty reports whether the queue has no packets.
func (q *FIFO) Empty() bool { return q.Len() == 0 }

// Paused reports the pause flag.
func (q *FIFO) Paused() bool { return q.paused }

// SetPaused sets the pause flag. A paused queue is skipped by the scheduler.
func (q *FIFO) SetPaused(p bool) {
	q.paused = p
	if q.drr != nil && !q.Empty() {
		if p {
			q.drr.clearReady(q.idx)
		} else {
			q.drr.setReady(q.idx)
		}
	}
}

// ForEach visits queued packets from head to tail.
func (q *FIFO) ForEach(fn func(*packet.Packet)) {
	for i := q.head; i < len(q.packets); i++ {
		fn(q.packets[i])
	}
}

// DRR schedules packets from a set of FIFO queues using deficit round robin
// with a configurable quantum. Empty and paused queues are skipped. DRR is
// work conserving: if any serviceable queue has a packet, Dequeue returns
// one.
type DRR struct {
	queues   []*FIFO
	deficits []units.Bytes
	quantum  units.Bytes
	next     int  // round-robin position
	credited bool // whether the current visit to queues[next] already received its quantum

	// ready is the serviceability bitmap: bit i is set exactly when
	// queues[i] is non-empty and not paused. The queues maintain it on their
	// state transitions (see FIFO.drr), so ActiveQueues — called on every BFC
	// pause-threshold computation — reads a couple of words instead of
	// dereferencing every queue, and Dequeue jumps the pointer from set bit to
	// set bit.
	ready []uint64
}

// NewDRR creates a scheduler over the given queues. The quantum should be at
// least the MTU so every visit can send at least one packet. Each queue may
// belong to at most one scheduler.
func NewDRR(queues []*FIFO, quantum units.Bytes) *DRR {
	if quantum <= 0 {
		panic("queue: DRR quantum must be positive")
	}
	if len(queues) == 0 {
		panic("queue: DRR needs at least one queue")
	}
	d := &DRR{
		queues:   queues,
		deficits: make([]units.Bytes, len(queues)),
		quantum:  quantum,
		ready:    make([]uint64, (len(queues)+63)/64),
	}
	for i, q := range queues {
		if q.drr != nil {
			panic("queue: FIFO already scheduled by another DRR")
		}
		q.drr, q.idx = d, i
		if !q.Empty() && !q.Paused() {
			d.setReady(i)
		}
	}
	return d
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
		q := d.queues[i]
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
