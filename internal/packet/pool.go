package packet

// Pool is a free-list of Packets owned by one simulation. The simulator
// allocates packets at the sending NIC and recycles them at their terminal
// consumption point (the receiving NIC, or the switch that drops them), so a
// steady-state run reuses a small working set instead of garbage-collecting
// millions of short-lived Packet objects.
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
//   - exactly one terminal owner calls Put: the receiving NIC after
//     processing, or the switch when it drops the packet at admission;
//   - a packet must never be referenced after Put (Put wipes it).
type Pool struct {
	free []*Packet

	allocated uint64
	recycled  uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed packet, reusing a recycled one when available.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.pooled = false
		pl.recycled++
		return p
	}
	pl.allocated++
	return &Packet{}
}

// Put recycles p. The caller must be the packet's terminal owner; the packet
// contents are wiped (the INT backing array is kept so telemetry stacks do
// not reallocate). Putting the same packet twice without an intervening Get
// panics — it means two devices both believed they owned the packet.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	if p.pooled {
		panic("packet: double Put — packet recycled while still owned elsewhere")
	}
	intBuf := p.INT[:0]
	*p = Packet{INT: intBuf, pooled: true}
	pl.free = append(pl.free, p)
}

// Allocated returns the number of Gets that had to allocate a new packet.
func (pl *Pool) Allocated() uint64 { return pl.allocated }

// Recycled returns the number of Gets served from the free-list.
func (pl *Pool) Recycled() uint64 { return pl.recycled }
