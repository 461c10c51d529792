package packet

// Pool is a free-list of Packets owned by one simulation shard. The simulator
// allocates packets at the sending NIC and recycles them at their terminal
// consumption point (the receiving NIC, or the switch that drops them), so a
// steady-state run reuses a small working set instead of garbage-collecting
// millions of short-lived Packet objects. A free-list miss carves the next
// packet from a page of pagePackets packets, so even the working set costs
// one heap object per page rather than one per packet.
//
// Pool is deliberately NOT a sync.Pool: simulations are single-threaded per
// scheduler, a plain slice free-list is both faster (no per-P caches, no
// atomic operations) and deterministic (sync.Pool may drop or migrate items
// at GC boundaries, which would make object identity — and therefore any
// accidental aliasing bug — irreproducible between runs).
//
// Ownership rules (see README.md "Performance"):
//   - the device that calls Get owns the packet until it hands it to a Link;
//   - each Transmit transfers ownership to the receiving device;
//   - a packet is in at most one queue at a time (Enqueue panics otherwise),
//     and leaves it before its owner hands it on;
//   - exactly one terminal owner calls Put, on an unqueued packet: the
//     receiving NIC after processing, or the switch when it drops the packet
//     at admission;
//   - a packet must never be referenced after Put (Put wipes it).
//
// The terminal owner may sit on another shard than the sender, so a packet
// can end in another shard's free list. That is harmless: a pool never frees
// a page, the garbage collector does once none of its packets is referenced.
type Pool struct {
	free []*Packet
	// page holds the packets not yet handed out of the last page carved.
	page []Packet

	// allocated counts the packets carved from pages, puts those pushed onto
	// free; the Gets served from free number puts - len(free), so Get's
	// free-list path counts nothing.
	allocated uint64
	puts      uint64
}

// pagePackets is the number of packets one page holds (80 B each).
const pagePackets = 128

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet, reusing a recycled one when available.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.held = heldByNone
		return p
	}
	if len(pl.page) == 0 {
		// The page is made in line: an out-of-line call would cost Get its
		// inlining, a make does not.
		pl.page = make([]Packet, pagePackets)
	}
	p := &pl.page[0]
	pl.page = pl.page[1:]
	pl.allocated++
	return p
}

// Put recycles p. The caller must be the packet's terminal owner; the packet
// contents are wiped, the in-flight Wire with them (the INT backing array is
// kept so telemetry stacks do not reallocate). Putting the same packet twice
// without an intervening Get panics — it means two devices both believed they
// owned the packet — and so does putting a packet that a queue still holds.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	if p.held != heldByNone {
		panic("packet: Put of a packet still owned elsewhere (recycled or queued)")
	}
	intBuf := p.INT[:0]
	*p = Packet{INT: intBuf, held: heldByPool}
	pl.free = append(pl.free, p)
	pl.puts++
}

// Allocated returns the number of Gets that had to carve a new packet: the
// number of distinct packets this pool has handed out.
func (pl *Pool) Allocated() uint64 { return pl.allocated }

// Recycled returns the number of Gets served from the free-list.
func (pl *Pool) Recycled() uint64 { return pl.puts - uint64(len(pl.free)) }

// Free returns the number of packets waiting in the free-list. Summed over
// the pools of a run, allocated minus free is the number of packets live.
func (pl *Pool) Free() int { return len(pl.free) }
