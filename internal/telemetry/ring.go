package telemetry

// Bounded is a fixed-capacity ring buffer: the newest items win, the oldest
// are overwritten, and memory is fixed at construction. Items are stored by
// value in a preallocated slice, so Record never allocates. Bounded is not
// safe for concurrent use — one belongs to one (single-threaded) simulation
// run, or to one shard of it.
type Bounded[T any] struct {
	buf []T
	// next is the overwrite cursor once the buffer is full (len == cap); it
	// then always points at the oldest retained item.
	next int
	seen uint64
}

// Ring is the flight recorder's bounded ring of events; it implements
// Recorder.
type Ring = Bounded[Event]

// DefaultRingCapacity bounds a trace when the caller does not choose: 64K
// events is a few MB and comfortably covers the interesting window of an
// incast at the scales the figures run.
const DefaultRingCapacity = 1 << 16

// NewRing creates a ring holding at most capacity events.
func NewRing(capacity int) *Ring { return NewBounded[Event](capacity) }

// NewBounded creates a ring holding at most capacity items; capacity must be
// positive.
func NewBounded[T any](capacity int) *Bounded[T] {
	return &Bounded[T]{buf: make([]T, 0, capacity)}
}

// Record keeps v, overwriting the oldest item once the ring is full.
func (r *Bounded[T]) Record(v T) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// Cap returns the ring's fixed capacity. The sharded engine sizes its
// per-shard keyed rings with it: each shard retaining its own last Cap
// events guarantees the union contains the last Cap events of the merged
// serial-order stream.
func (r *Bounded[T]) Cap() int { return cap(r.buf) }

// Seen returns the total number of items recorded, including any that have
// since been overwritten.
func (r *Bounded[T]) Seen() uint64 { return r.seen }

// Overwritten returns how many recorded items were lost to ring wrap.
func (r *Bounded[T]) Overwritten() uint64 { return r.seen - uint64(len(r.buf)) }

// Events returns the retained items in the order they were recorded. The
// returned slice is freshly allocated; the ring can keep recording afterwards.
func (r *Bounded[T]) Events() []T {
	out := make([]T, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}
