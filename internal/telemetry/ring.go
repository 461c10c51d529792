package telemetry

// Ring is the flight recorder's fixed-capacity ring of events; it implements
// Recorder. The newest events win, the oldest are overwritten, and memory is
// fixed at construction. Events are stored by value in a preallocated slice,
// so Record never allocates. A Ring is not safe for concurrent use: one
// belongs to one simulation run, whose coordinator feeds it the merged stream
// of every shard at each barrier, so Seen and Overwritten count every event
// the run emitted at any shard count.
type Ring struct {
	buf []Event
	// next is the overwrite cursor once the buffer is full (len == cap); it
	// then always points at the oldest retained event.
	next int
	seen uint64
}

// DefaultRingCapacity bounds a trace when the caller does not choose: 64K
// events is a few MB and comfortably covers the interesting window of an
// incast at the scales the figures run.
const DefaultRingCapacity = 1 << 16

// NewRing creates a ring holding at most capacity events; capacity must be
// positive.
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Record keeps ev, overwriting the oldest event once the ring is full.
func (r *Ring) Record(ev Event) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Seen returns the total number of events recorded, including any that have
// since been overwritten.
func (r *Ring) Seen() uint64 { return r.seen }

// Overwritten returns how many recorded events were lost to ring wrap.
func (r *Ring) Overwritten() uint64 { return r.seen - uint64(len(r.buf)) }

// Events returns the retained events in the order they were recorded. The
// returned slice is freshly allocated; the ring can keep recording afterwards.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}
