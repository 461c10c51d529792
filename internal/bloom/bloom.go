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
// A snapshot is read-only once returned: Counting hands the same *Filter to
// every pause frame until one of its bits flips, so one snapshot may be held
// at once by several ticks' frames, by upstream devices and by devices on
// other shards. That sharing is race-free because nothing writes a Filter
// after Snapshot has returned it, and Snapshot is the only way to build one.
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
// paper's sensitivity study (Fig 14), kept inline so that a snapshot is one
// allocation.
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
// params.words() stay zero), so a Filter is a single object.
type Filter struct {
	params Params
	bits   [MaxSizeBytes / 8]uint64
}

// Contains reports whether the VFID matches the filter (i.e. should be
// treated as paused). False positives are possible; false negatives are not.
func (f *Filter) Contains(v packet.VFID) bool {
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
// Counting keeps that bit vector up to date as counters cross 0↔1, and it
// keeps the last snapshot it issued until one of those crossings happens, so
// a pause frame costs nothing while the pause set stands still.
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
	// snap is the last Filter Snapshot returned, or nil once a bit of bits
	// has flipped since.
	snap *Filter
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
			c.snap = nil
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
			c.snap = nil
		}
	}
	c.members--
}

// Members returns the number of VFIDs currently registered.
func (c *Counting) Members() int { return c.members }

// Snapshot returns the wire Filter representing the current pause set. It
// returns the same *Filter as the previous call until a bit flips, and then a
// new one copied from the live bit vector, at the cost of one allocation. The
// result is read-only: it may be held by several pause frames, upstream
// devices and other shards at once, which is race-free only because nobody
// writes it after it is returned.
func (c *Counting) Snapshot() *Filter {
	if c.snap == nil {
		c.snap = &Filter{params: c.params}
		copy(c.snap.bits[:], c.bits)
	}
	return c.snap
}
