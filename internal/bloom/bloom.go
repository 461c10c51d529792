// Package bloom implements the multistage bloom filters BFC uses to
// communicate per-flow pauses between switches (§3.6 of the paper).
//
// Two structures are provided:
//
//   - Filter: the wire representation carried in a pause frame. It is a plain
//     bit vector; membership is tested with k independent hash positions.
//   - Counting: the switch-internal counting bloom filter. Each position is a
//     small counter so that pausing two flows that collide on a bit and later
//     resuming one of them leaves the bit set for the other (§3.6).
//
// The upstream switch receives a Filter and tests the VFID at the head of
// each physical queue against it; the downstream switch maintains a Counting
// filter per ingress link and snapshots it into a Filter every pause-frame
// interval.
//
// A Filter has exactly one owner at a time, and ownership changes hands, so
// no Filter is ever shared. Snapshot fills a record from a Pool and hands it
// to the caller, which puts it in a pause frame; the frame in flight owns it
// until the receiving device installs it with Swap, which returns the record
// it displaces; the receiver puts that one back in its own Pool (and so does
// whoever finds a frame lost). A record may end in another shard's Pool than
// the one it came from; the barrier that carries the frame across orders the
// two shards' accesses. An empty pause set travels as a nil *Filter, which
// contains nothing.
package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"bfc/internal/packet"
)

// DefaultHashes is the number of hash functions used by the paper's
// evaluation (4).
const DefaultHashes = 4

// DefaultSizeBytes is the paper's pause-frame bloom filter size (128 bytes).
const DefaultSizeBytes = 128

// MaxSizeBytes is the largest filter a Filter holds: the largest size in the
// paper's sensitivity study (Fig 14), kept inline so that a Filter is one
// object and a Pool can carve them from pages.
const MaxSizeBytes = 128

// Params configures a pause-frame bloom filter.
type Params struct {
	// SizeBytes is the size of the bit vector in bytes (16–128 in the paper's
	// sensitivity study, Fig 14), at most MaxSizeBytes.
	SizeBytes int
	// Hashes is the number of hash positions per element.
	Hashes int
}

// DefaultParams returns the configuration used in the paper's main
// experiments.
func DefaultParams() Params {
	return Params{SizeBytes: DefaultSizeBytes, Hashes: DefaultHashes}
}

func (p Params) validate() {
	if p.SizeBytes <= 0 || p.SizeBytes > MaxSizeBytes {
		panic("bloom: SizeBytes must be in [1,128]")
	}
	if p.Hashes <= 0 || p.Hashes > 16 {
		panic("bloom: Hashes must be in [1,16]")
	}
}

// bits returns the number of bit positions.
func (p Params) bits() int { return p.SizeBytes * 8 }

// words returns the number of 64-bit words that hold the bit positions.
func (p Params) words() int { return (p.bits() + 63) / 64 }

// positions computes the p.Hashes bit positions for a VFID. The hash family
// is the standard double-hashing construction g_i(x) = h1(x) + i*h2(x), which
// gives independent-enough positions for bloom filter purposes.
func (p Params) positions(v packet.VFID, out []int) []int {
	out = out[:0]
	m := uint64(p.bits())
	h1 := packet.Mix64(uint64(v) + packet.Gamma)
	h2 := packet.Mix64(uint64(v) ^ 0xbf58476d1ce4e5b9)
	// Force h2 odd so the probe sequence covers all positions for power-of-two m.
	h2 |= 1
	for i := 0; i < p.Hashes; i++ {
		out = append(out, int((h1+uint64(i)*h2)%m))
	}
	return out
}

// Filter is the wire-format pause bloom filter: a bit for every position, set
// if some paused VFID hashes there. The words are held inline (those past
// params.words() stay zero), so a Filter is a single object. The nil *Filter
// is the empty pause set.
type Filter struct {
	params Params
	bits   [MaxSizeBytes / 8]uint64
	// pooled marks a record in a Pool's free list, installed one that a Swap
	// slot holds; a record that is neither belongs to a frame or to whoever
	// is filling it.
	pooled, installed bool
}

// Contains reports whether the VFID matches the filter (i.e. should be
// treated as paused). False positives are possible; false negatives are not.
// The nil Filter contains nothing.
func (f *Filter) Contains(v packet.VFID) bool {
	if f == nil {
		return false
	}
	var buf [16]int
	for _, pos := range f.params.positions(v, buf[:0]) {
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// SetBits returns the number of set bit positions (diagnostics).
func (f *Filter) SetBits() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, w := range f.bits[:] {
		n += bits.OnesCount64(w)
	}
	return n
}

// String summarizes the filter.
func (f *Filter) String() string {
	return fmt.Sprintf("bloom{%dB,k=%d,set=%d}", f.params.SizeBytes, f.params.Hashes, f.SetBits())
}

// Counting is the downstream switch's per-ingress counting bloom filter. Add
// increments the counters for a VFID's positions; Remove decrements them. A
// bit in the transmitted Filter is set iff its counter is non-zero, so a VFID
// remains paused as long as any colliding VFID is still paused (§3.6).
//
// Counting keeps that bit vector up to date as counters cross 0↔1, so a
// snapshot is a copy of it.
//
// The counters (2 B per bit position, 2 KB at the paper's 128 B filter) are
// allocated by the first Add: most of a fabric's ingress ports never pause a
// flow. A Counting may be copied into place (c = *NewCounting(p)) before its
// first Add.
type Counting struct {
	params Params
	// counts and bits are nil until the first Add.
	counts []uint16
	// bits is the live wire bit vector: bit i is set iff counts[i] > 0.
	bits []uint64
	// members tracks how many VFIDs are currently inserted (diagnostics).
	members int
}

// NewCounting returns an empty counting filter.
func NewCounting(p Params) *Counting {
	p.validate()
	return &Counting{params: p}
}

// Add registers a paused VFID. Calling Add for a VFID that is already paused
// is the caller's responsibility to avoid (the switch tracks pause state per
// flow-table entry).
func (c *Counting) Add(v packet.VFID) {
	if c.counts == nil {
		c.counts = make([]uint16, c.params.bits())
		c.bits = make([]uint64, c.params.words())
	}
	var buf [16]int
	for _, pos := range c.params.positions(v, buf[:0]) {
		switch c.counts[pos] {
		case math.MaxUint16:
			panic("bloom: counting filter counter overflow")
		case 0:
			c.bits[pos/64] |= 1 << (pos % 64)
		}
		c.counts[pos]++
	}
	c.members++
}

// Remove unregisters a paused VFID. Removing a VFID that was never added
// corrupts the filter; the switch only calls Remove for flows it marked
// paused.
func (c *Counting) Remove(v packet.VFID) {
	if c.counts == nil {
		panic("bloom: counting filter counter underflow")
	}
	var buf [16]int
	for _, pos := range c.params.positions(v, buf[:0]) {
		if c.counts[pos] == 0 {
			panic("bloom: counting filter counter underflow")
		}
		c.counts[pos]--
		if c.counts[pos] == 0 {
			c.bits[pos/64] &^= 1 << (pos % 64)
		}
	}
	c.members--
}

// Members returns the number of VFIDs currently registered.
func (c *Counting) Members() int { return c.members }

// Snapshot returns the wire Filter representing the current pause set: nil
// when no VFID is paused, and otherwise a record from pool (a new one when
// pool is nil) holding a copy of the live bit vector. The caller owns the
// record: it hands it on in a pause frame or puts it back.
func (c *Counting) Snapshot(pool *Pool) *Filter {
	if c.members == 0 {
		return nil
	}
	f := pool.Get()
	f.params = c.params
	n := copy(f.bits[:], c.bits)
	clear(f.bits[n:])
	return f
}

// Swap installs f — a received Filter, or nil for the empty pause set — in
// the slot and returns the record it displaces, whose owner the caller
// becomes. An installed record stays out of every Pool until a later Swap
// displaces it; installing a record that is pooled or installed already
// panics, since two owners would then share it.
func Swap(slot **Filter, f *Filter) *Filter {
	if f != nil {
		if f.pooled || f.installed {
			panic("bloom: installing a filter owned elsewhere (pooled or installed)")
		}
		f.installed = true
	}
	old := *slot
	if old != nil {
		old.installed = false
	}
	*slot = f
	return old
}

// Pool is a free list of Filter records owned by one simulation shard, like
// packet.Pool for packets: a miss carves the next record from a page of
// pageFilters, and records go back with Put once their last owner is done
// with them. A nil *Pool is valid: Get allocates a record and Put leaves it
// to the garbage collector, for devices built without one.
type Pool struct {
	free []*Filter
	// page holds the records not yet handed out of the last page carved.
	page []Filter
	// carved counts the records carved from pages.
	carved uint64
}

// pageFilters is the number of records one page holds (152 B each).
const pageFilters = 32

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a record for the caller to fill, reusing a recycled one when
// available. Its contents are unspecified.
func (pl *Pool) Get() *Filter {
	if pl == nil {
		return new(Filter)
	}
	if n := len(pl.free); n > 0 {
		f := pl.free[n-1]
		pl.free = pl.free[:n-1]
		f.pooled = false
		return f
	}
	if len(pl.page) == 0 {
		pl.page = make([]Filter, pageFilters)
	}
	f := &pl.page[0]
	pl.page = pl.page[1:]
	pl.carved++
	return f
}

// Put recycles f, which the caller must own: its frame was lost or ignored,
// or a Swap displaced it. Putting nil does nothing. Putting a record twice
// without an intervening Get panics, and so does putting an installed one:
// either means two owners believed they held it.
func (pl *Pool) Put(f *Filter) {
	if f == nil {
		return
	}
	if f.pooled || f.installed {
		panic("bloom: Put of a filter still owned elsewhere (pooled or installed)")
	}
	if pl != nil {
		f.pooled = true
		pl.free = append(pl.free, f)
	}
}

// Carved returns the number of distinct records this pool has carved.
func (pl *Pool) Carved() uint64 { return pl.carved }

// Free returns the number of records waiting in the free list. Summed over
// the pools of a run, carved minus free is the number of records that frames
// and upstream states hold.
func (pl *Pool) Free() int { return len(pl.free) }
