package netsim

import (
	"unsafe"

	"bfc/internal/eventsim"
	"bfc/internal/packet"
)

// BoundaryMsg is one delivery crossing a shard boundary: either a data packet
// or a control frame, stamped with the ordering key it would have carried had
// it been scheduled locally. The link pointer carries the receiver identity
// (peer device, ingress port): the drain writes it into the packet's Wire, or
// into a record from the link's Frames beside the frame, and schedules the
// delivery callback a local link would, for the same target.
type BoundaryMsg struct {
	Key  eventsim.Key
	Link *Link
	Pkt  *packet.Packet
	Ctrl ControlFrame
}

// BoundaryStats is a queue's cumulative traffic: DrainInto never resets it,
// so the coordinator reads whole-run totals after the final barrier.
type BoundaryStats struct {
	Pushes   uint64 // total messages pushed
	MaxDrain int    // largest single drain batch, i.e. the occupancy high-water
}

// Boundary carries deliveries from a sending shard to a receiving shard: one
// reusable slice the sender appends to during a window and the coordinator
// empties at the barrier; the join between the two is the happens-before
// edge, so no atomics are needed. A conservative barrier drains every queue
// before any shard resumes, so Push must never block — it appends. Capacity
// grows to the largest window ever seen and is kept, so steady state
// allocates nothing. The zero value is ready to use.
type Boundary struct {
	msgs  []BoundaryMsg
	stats BoundaryStats
}

// Push enqueues one boundary delivery.
func (b *Boundary) Push(m BoundaryMsg) {
	b.stats.Pushes++
	b.msgs = append(b.msgs, m)
}

// Stats returns the queue's cumulative traffic counters.
func (b *Boundary) Stats() BoundaryStats { return b.stats }

// DrainInto schedules every queued delivery onto the receiving shard's
// scheduler, each under its original ordering key — so the receiver's queue
// interleaves boundary deliveries with local events exactly as one shard's
// would — empties the queue and returns the count.
func (b *Boundary) DrainInto(sched *eventsim.Scheduler) int {
	n := len(b.msgs)
	for i := range b.msgs {
		m := &b.msgs[i]
		if m.Pkt != nil {
			m.Pkt.Wire = unsafe.Pointer(m.Link)
			sched.ScheduleCallInjected(m.Key, m.Link.target, landPacket, m.Pkt)
			continue
		}
		sched.ScheduleCallInjected(m.Key, m.Link.target, landFrame, m.Link.Frames.get(m.Link, m.Ctrl))
	}
	clear(b.msgs) // the kept backing array must not pin pooled packets or frames
	b.msgs = b.msgs[:0]
	b.stats.MaxDrain = max(b.stats.MaxDrain, n)
	return n
}
