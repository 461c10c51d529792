// Package flowtable implements the per-switch virtual-flow state store
// described in §3.8 of the BFC paper.
//
// State is kept only for flows that currently have packets queued at the
// switch. The table is a hash table indexed directly by VFID (so the key is
// implicit and never stored) with a small fixed bucket size; entries within a
// bucket are disambiguated by their (ingress, egress) port pair. Two 5-tuples
// that hash to the same VFID and share the same ingress and egress are —
// deliberately, as in the paper — treated as the same flow; the caller can
// detect and count such collisions for reporting.
//
// When a bucket is full, entries spill into a small associative overflow
// cache (the paper's "overflow TCAM", 100 entries). If that also fills, the
// caller must fall back to the per-egress overflow queue.
//
// The host-side layout keeps an idle table cheap — a run builds one per
// switch and most VFIDs never see a flow: the VFID index is an open-addressed
// hash table from VFID to bucket, sized to the VFIDs that hold entries rather
// than to the VFID space; a bucket is a chain through its entries, and its
// capacity is a bound on the chain's length. The tables of one shard carve
// their entries from one Store, pages of pageEntries numbered by one slab,
// so a shard's tables cost a heap object per page, not per table; each table
// recycles its own entries through a free chain. The indexes tables grow into
// come from the Store too, carved from pages of cells, and an outgrown index
// goes back to it for the next table that grows to its length. An *Entry is
// stable: from Insert until Remove it is the same object at the same address.
package flowtable

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// DefaultNumVFIDs is the VFID space of the paper's evaluation (§4.1).
const DefaultNumVFIDs = 16384

// The §3.8 table geometry every switch uses: 4-entry buckets and a 100-entry
// overflow cache.
const (
	defaultBucketSize  = 4
	defaultOverflowCap = 100
)

// Entry is the state kept for one active virtual flow at one switch.
type Entry struct {
	VFID    packet.VFID
	Ingress int // ingress port the flow arrives on
	Egress  int // egress port the flow leaves on

	// Queue is the physical queue index at the egress port the flow is
	// assigned to. -1 means not yet assigned.
	Queue int

	// Paused records whether this switch has asked the upstream to pause the
	// flow (i.e. the VFID is registered in the ingress counting bloom
	// filter).
	Paused bool

	// Packets and Bytes count what is currently queued for this virtual flow
	// at this switch.
	Packets int
	Bytes   units.Bytes

	// PendingResume marks a paused flow that has been placed on the
	// "toberesumed" list but whose bloom-filter entry has not yet been
	// cleared (§3.5: at most a bounded number of flows are resumed per
	// pause-frame interval per physical queue).
	PendingResume bool

	// LastFlow records the most recent concrete flow observed for this entry.
	// Two distinct 5-tuples that map to the same (VFID, ingress, egress) are
	// deliberately treated as one flow by the switch; LastFlow lets the
	// simulator count how often that aliasing happens (Fig 13a).
	LastFlow packet.FlowID

	// inOverflow marks entries living in the overflow cache rather than a
	// bucket slot, freed those on the free chain.
	inOverflow, freed bool

	// slot is 1 + the entry's index in its Store's slab, fixed for its
	// lifetime. next chains the entry to the following one of its bucket, or
	// of its table's free chain once removed, in the same encoding; 0 ends a
	// chain.
	slot, next int32
}

// Key identifies an entry: the VFID plus the port pair that disambiguates
// bucket slots.
type Key struct {
	VFID    packet.VFID
	Ingress int
	Egress  int
}

// Table is the VFID-indexed flow state table. It is not safe for concurrent
// use; the simulator is single threaded per run.
type Table struct {
	numVFIDs   int
	bucketSize int
	// index finds the bucket of every VFID that has one: an open-addressed
	// table with linear probing, a power of two long and at most half full,
	// so a lookup ends at the VFID's cell or an empty one within a few steps.
	// A cell keeps the VFID beside the first entry of its bucket, so each
	// probe reads one cache line; the bucket is the chain through Entry.next,
	// at most bucketSize long. A VFID's cell is freed when its bucket empties.
	// The index starts at minIndex cells and doubles when a VFID would make
	// it more than half full; like the slab it never shrinks, which would
	// reallocate on every swing of a switch's flow count. A doubled index
	// comes from the store, which keeps the outgrown one for the next table
	// that grows to its length. It holds no pointers, so the collector never
	// scans it.
	index []cell
	// shift maps a VFID's hash to its home cell: 32 − log2(len(index)).
	shift uint8
	// used counts the occupied cells.
	used int
	// store is where the table carves its entries, shared with the other
	// tables of its shard. carved counts the entries this table took from
	// it, bucket, overflow or free: its high-water occupancy, since a table
	// takes a new entry only when its free chain is empty.
	store  *Store
	carved int

	// overflow is the overflow cache, nil until the first entry spills in.
	overflow    map[Key]*Entry
	overflowCap int

	active int

	// free heads the chain of the table's removed entries, most recent
	// first. Flow activations are the dominant allocation in steady state
	// (one entry per active flow per switch), and the engine drops every
	// pointer to an entry before calling Remove, so reuse is invisible to
	// callers. The chain is the table's own, not the store's: a table reuses
	// only entries it carved, so its entries lie in the slab in the order it
	// first carved them, whatever the other tables do (see Each).
	free int32
}

// Store holds the entries of the tables of one shard: the pages they are
// carved from and the slab that numbers them. It also holds the indexes the
// tables grow into. The zero value is ready to use; the first entry carved
// makes the first page.
type Store struct {
	// slab holds every entry carved, in carving order; an entry's slot is 1 +
	// its index. It never shrinks.
	slab []*Entry
	// page holds the entries not yet carved from the last page.
	page []Entry
	// cells holds the index cells not yet carved from the last page of them,
	// and spare the indexes tables grew out of, by log2 of their length, for
	// the next table that grows to that length.
	cells []cell
	spare [32][][]cell
}

// cell is one index slot: a VFID and the first entry of its bucket, as 1 +
// its slab index. head 0 marks an empty cell.
type cell struct {
	vfid packet.VFID
	head int32
}

// minIndex is the length, in cells (64 bytes), of the index a table starts
// with.
const minIndex = 8

// Index is the index a table starts with. A caller that sets up many tables
// carves theirs from one []Index (see Init); a table that outgrows it takes
// the next, as the index doubles, from its Store.
type Index [minIndex]cell

// pageEntries is the number of entries one page of a Store holds (88 B
// each).
const pageEntries = 128

// indexPage is the number of cells one page of a Store's index cells holds
// (8 KB); a longer index is a page of its own.
const indexPage = 1024

// Init sets t up in place over the given VFID space with the §3.8 geometry,
// index as its first index, which t keeps, and store as where it carves its
// entries; it replaces whatever t held.
func (t *Table) Init(numVFIDs int, index *Index, store *Store) {
	t.init(numVFIDs, defaultBucketSize, defaultOverflowCap, index, store)
}

// newTable creates a table with the given VFID space, bucket size and
// overflow cache capacity and a store of its own; the tests use it to reach
// a full bucket and a full cache in a few operations.
func newTable(numVFIDs, bucketSize, overflowCap int) *Table {
	t := new(Table)
	t.init(numVFIDs, bucketSize, overflowCap, new(Index), new(Store))
	return t
}

// init sets t up; the overflow cache's map is made at the first entry that
// spills into it, which few tables ever have.
func (t *Table) init(numVFIDs, bucketSize, overflowCap int, index *Index, store *Store) {
	if numVFIDs <= 0 {
		panic("flowtable: numVFIDs must be positive")
	}
	if bucketSize <= 0 {
		panic("flowtable: bucketSize must be positive")
	}
	if overflowCap < 0 {
		panic("flowtable: overflowCap must be non-negative")
	}
	*t = Table{
		numVFIDs:    numVFIDs,
		bucketSize:  bucketSize,
		index:       index[:],
		shift:       32 - 3, // log2(minIndex)
		store:       store,
		overflowCap: overflowCap,
	}
}

// Active returns the number of entries currently stored.
func (t *Table) Active() int { return t.active }

// Lookup finds the entry for a VFID arriving on ingress and destined to
// egress. It returns nil if no such entry exists.
func (t *Table) Lookup(v packet.VFID, ingress, egress int) *Entry {
	e, _, _ := t.find(v, ingress, egress)
	return e
}

// find is Lookup that also reports v's index cell (see cellOf) and, when the
// entry is not in v's bucket, the bucket's length.
func (t *Table) find(v packet.VFID, ingress, egress int) (e *Entry, at, depth int) {
	t.checkVFID(v)
	at = t.cellOf(v)
	for i := t.index[at].head; i != 0; depth++ {
		e := t.store.slab[i-1]
		if e.Ingress == ingress && e.Egress == egress {
			return e, at, depth
		}
		i = e.next
	}
	if len(t.overflow) == 0 {
		return nil, at, depth
	}
	return t.overflow[Key{VFID: v, Ingress: ingress, Egress: egress}], at, depth
}

// home returns the cell v's probe sequence starts at (Fibonacci hashing, so
// runs of consecutive VFIDs spread over the index).
func (t *Table) home(v packet.VFID) int {
	return int(uint32(v) * 0x9e3779b1 >> t.shift)
}

// cellOf returns the index cell holding v's bucket or, when v has none, the
// empty cell that ends v's probe sequence, where v's bucket would go.
func (t *Table) cellOf(v packet.VFID) int {
	mask := len(t.index) - 1
	for i := t.home(v); ; i = (i + 1) & mask {
		if c := &t.index[i]; c.head == 0 || c.vfid == v {
			return i
		}
	}
}

// claim gives v the empty cell at, or, when one more VFID would leave the
// index more than half full, doubles the index and gives v its empty cell
// there. It returns the cell; the caller sets its head.
func (t *Table) claim(v packet.VFID, at int) int {
	if 2*(t.used+1) > len(t.index) {
		old := t.index
		t.index = t.store.index(2 * len(old))
		t.shift--
		for _, c := range old {
			if c.head != 0 {
				t.index[t.cellOf(c.vfid)] = c
			}
		}
		if len(old) > minIndex {
			t.store.release(old)
		}
		at = t.cellOf(v)
	}
	t.used++
	t.index[at].vfid = v
	return at
}

// release empties cell at, whose bucket has emptied. A probe stops at the
// first empty cell, so each later cell of the run moves back into the hole
// unless its own home lies between the hole and it.
func (t *Table) release(at int) {
	mask := len(t.index) - 1
	for j := (at + 1) & mask; t.index[j].head != 0; j = (j + 1) & mask {
		if (j-t.home(t.index[j].vfid))&mask >= (j-at)&mask {
			t.index[at] = t.index[j]
			at = j
		}
	}
	t.index[at] = cell{}
	t.used--
}

// InsertResult describes where a new entry was stored.
type InsertResult int

const (
	// InsertedBucket means the entry occupies a direct-mapped bucket slot.
	InsertedBucket InsertResult = iota
	// InsertedOverflowCache means the bucket was full and the entry lives in
	// the associative overflow cache.
	InsertedOverflowCache
	// InsertFailed means neither structure had room; the caller must handle
	// the flow through the per-egress overflow queue, without per-flow state.
	InsertFailed
)

// Insert creates an entry for a new active flow. The caller must have checked
// with Lookup that no entry exists (inserting a duplicate key panics, since
// it would silently split one flow's state in two).
func (t *Table) Insert(v packet.VFID, ingress, egress int) (*Entry, InsertResult) {
	dup, at, depth := t.find(v, ingress, egress)
	if dup != nil {
		panic(fmt.Sprintf("flowtable: duplicate insert for VFID %d in=%d out=%d", v, ingress, egress))
	}
	if depth < t.bucketSize {
		e := t.newEntry(v, ingress, egress)
		if t.index[at].head == 0 {
			at = t.claim(v, at)
		}
		e.next, t.index[at].head = t.index[at].head, e.slot
		return e, InsertedBucket
	}
	if len(t.overflow) < t.overflowCap {
		if t.overflow == nil {
			t.overflow = make(map[Key]*Entry)
		}
		e := t.newEntry(v, ingress, egress)
		e.inOverflow = true
		t.overflow[Key{VFID: v, Ingress: ingress, Egress: egress}] = e
		return e, InsertedOverflowCache
	}
	return nil, InsertFailed
}

// newEntry takes an entry off the free chain, or carves one from the store,
// and counts it active.
func (t *Table) newEntry(v packet.VFID, ingress, egress int) *Entry {
	var e *Entry
	if t.free != 0 {
		e = t.store.slab[t.free-1]
		t.free = e.next
	} else {
		e = t.store.carve()
		t.carved++
	}
	*e = Entry{VFID: v, Ingress: ingress, Egress: egress, Queue: -1, slot: e.slot}
	t.active++
	return e
}

// carve grows the slab by one entry from the current page, making the next
// page when it is used up.
func (st *Store) carve() *Entry {
	if len(st.page) == 0 {
		st.page = make([]Entry, pageEntries)
	}
	e := &st.page[0]
	st.page = st.page[1:]
	st.slab = append(st.slab, e)
	e.slot = int32(len(st.slab))
	return e
}

// index returns an empty index of n cells, n a power of two: a spare one of
// that length, or else one carved from the page of cells.
func (st *Store) index(n int) []cell {
	k := bits.TrailingZeros(uint(n))
	if m := len(st.spare[k]); m > 0 {
		idx := st.spare[k][m-1]
		st.spare[k] = st.spare[k][:m-1]
		clear(idx)
		return idx
	}
	if len(st.cells) < n {
		st.cells = make([]cell, max(n, indexPage))
	}
	idx := st.cells[:n:n]
	st.cells = st.cells[n:]
	return idx
}

// release keeps an index a table grew out of, and no longer reads, as a
// spare.
func (st *Store) release(idx []cell) {
	k := bits.TrailingZeros(uint(len(idx)))
	st.spare[k] = append(st.spare[k], idx)
}

// Each yields every live entry, for use as a range-over-func iterator: the
// bucket entries in index order, then the overflow cache's in slot order,
// which is the order the table first carved them, so a walk visits them in
// the same order on every run and at every shard count. The caller may
// change an entry's fields, but must not insert or remove during the walk.
func (t *Table) Each(yield func(*Entry) bool) {
	for _, c := range t.index {
		for i := c.head; i != 0; i = t.store.slab[i-1].next {
			if !yield(t.store.slab[i-1]) {
				return
			}
		}
	}
	if len(t.overflow) == 0 {
		return
	}
	var room [defaultOverflowCap]*Entry
	spilled := room[:0]
	for _, e := range t.overflow {
		spilled = append(spilled, e)
	}
	slices.SortFunc(spilled, func(a, b *Entry) int { return cmp.Compare(a.slot, b.slot) })
	for _, e := range spilled {
		if !yield(e) {
			return
		}
	}
}

// Remove deletes an entry once the last packet of the flow has left the
// switch. Removing an entry that is not in the table panics.
func (t *Table) Remove(e *Entry) {
	if e == nil {
		panic("flowtable: removing nil entry")
	}
	t.checkVFID(e.VFID)
	if e.inOverflow {
		k := Key{VFID: e.VFID, Ingress: e.Ingress, Egress: e.Egress}
		if t.overflow[k] != e {
			panic("flowtable: removing unknown overflow entry")
		}
		delete(t.overflow, k)
	} else {
		at := t.cellOf(e.VFID)
		link := &t.index[at].head
		for *link != 0 && t.store.slab[*link-1] != e {
			link = &t.store.slab[*link-1].next
		}
		if *link == 0 {
			panic("flowtable: removing unknown entry")
		}
		*link = e.next
		if t.index[at].head == 0 {
			t.release(at)
		}
	}
	t.active--
	e.next, t.free, e.freed = t.free, e.slot, true
}

// Check walks the whole table and reports the first broken invariant: Active
// must equal the bucket chains' lengths plus the overflow cache's size; a
// chain must hold at most bucketSize entries, all of its cell's VFID, and
// that VFID must be found from its home cell; the overflow cache must hold
// store entries filed under their own keys; every entry the table carved
// must be live or on the free chain, and not both; the index must be at most
// half full. It allocates nothing. Tests call it after every
// step, and a BFC switch's end-of-run check once (core.Engine.Check).
func (t *Table) Check() error {
	if 2*t.used > len(t.index) {
		return fmt.Errorf("flowtable: index holds %d VFIDs in %d cells, more than half full", t.used, len(t.index))
	}
	used, entries := 0, len(t.overflow)
	for at, c := range t.index {
		if c.head == 0 {
			continue
		}
		used++
		if int(c.vfid) >= t.numVFIDs || t.cellOf(c.vfid) != at {
			return fmt.Errorf("flowtable: VFID %d in cell %d is not found from its home cell", c.vfid, at)
		}
		n := 0
		for i := c.head; i != 0; i = t.store.slab[i-1].next {
			if n++; n > t.bucketSize {
				return fmt.Errorf("flowtable: VFID %d's bucket holds more than %d entries", c.vfid, t.bucketSize)
			}
			if e := t.store.slab[i-1]; e.VFID != c.vfid || e.inOverflow || e.freed {
				return fmt.Errorf("flowtable: VFID %d's bucket holds an entry of VFID %d (overflow %v, freed %v)", c.vfid, e.VFID, e.inOverflow, e.freed)
			}
		}
		entries += n
	}
	if used != t.used {
		return fmt.Errorf("flowtable: %d occupied cells, counted %d", used, t.used)
	}
	if entries != t.active {
		return fmt.Errorf("flowtable: Active() = %d, but buckets and overflow cache hold %d", t.active, entries)
	}
	for k, e := range t.overflow {
		if e == nil || e.slot < 1 || int(e.slot) > len(t.store.slab) || t.store.slab[e.slot-1] != e || k != (Key{e.VFID, e.Ingress, e.Egress}) {
			return fmt.Errorf("flowtable: overflow cache files %+v under %+v, not a store entry under its key", e, k)
		}
		if !e.inOverflow || e.freed {
			return fmt.Errorf("flowtable: bucket or free entry %+v is in the overflow cache", *e)
		}
	}
	free := 0
	for i := t.free; i != 0; i = t.store.slab[i-1].next {
		if free++; free > t.carved || !t.store.slab[i-1].freed {
			return fmt.Errorf("flowtable: free chain reaches live or cycling entry %d", i)
		}
	}
	if t.active+free != t.carved {
		return fmt.Errorf("flowtable: %d entries carved, %d live and %d on the free chain", t.carved, t.active, free)
	}
	return nil
}

func (t *Table) checkVFID(v packet.VFID) {
	if int(v) >= t.numVFIDs {
		panic(fmt.Sprintf("flowtable: VFID %d outside space %d", v, t.numVFIDs))
	}
}
