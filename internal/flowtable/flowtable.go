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
// switch and most VFIDs never see a flow: the VFID index is one int32 per
// VFID, a bucket is a chain through its entries, and its capacity is a bound
// on the chain's length. Entries are allocated one by one, owned by a slab
// and recycled through a free chain, so an *Entry is stable: from Insert
// until Remove it is the same object at the same address.
package flowtable

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// Default sizing from the paper's evaluation (§4.1, §3.8).
const (
	DefaultNumVFIDs    = 16384
	DefaultBucketSize  = 4
	DefaultOverflowCap = 100
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

	// HighPrioPackets counts packets of this flow currently sitting in the
	// egress high-priority queue (they are not in the assigned physical
	// queue).
	HighPrioPackets int

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
	// bucket slot.
	inOverflow bool

	// slot is 1 + the entry's index in Table.slab, fixed for its lifetime.
	// next chains the entry to the following one of its bucket, or of the
	// free list once removed, in the same encoding; 0 ends a chain.
	slot, next int32
}

// Key identifies an entry: the VFID plus the port pair that disambiguates
// bucket slots.
type Key struct {
	VFID    packet.VFID
	Ingress int
	Egress  int
}

// Stats counts table-level events for the Fig 13 sensitivity experiment.
type Stats struct {
	// Inserts is the number of successful entry creations (bucket or cache).
	Inserts uint64
	// BucketFull counts inserts that could not use the direct-mapped bucket
	// and had to try the overflow cache.
	BucketFull uint64
	// CacheFull counts inserts that could not be stored at all (caller must
	// use the overflow queue).
	CacheFull uint64
	// MaxOccupancy is the high-water mark of simultaneously active entries.
	MaxOccupancy int
}

// Table is the VFID-indexed flow state table. It is not safe for concurrent
// use; the simulator is single threaded per run.
type Table struct {
	numVFIDs   int
	bucketSize int
	// heads[v] is the first entry of VFID v's bucket, as 1 + its slab index
	// (0 = empty bucket); the bucket is the chain through Entry.next, at most
	// bucketSize long. The index holds no pointers: New clears 4 bytes per
	// VFID and the collector never scans it.
	heads []int32
	// slab owns every entry the table ever allocated: bucket, overflow or
	// free. It grows to the table's high-water occupancy and never shrinks.
	slab []*Entry

	overflow    map[Key]*Entry
	overflowCap int

	active int
	stats  Stats

	// free heads the chain of removed entries, most recent first. Flow
	// activations are the dominant allocation in steady state (one entry per
	// active flow per switch), and the engine drops every pointer to an entry
	// before calling Remove, so reuse is invisible to callers.
	free int32
}

// New creates a table with the given VFID space, bucket size and overflow
// cache capacity.
func New(numVFIDs, bucketSize, overflowCap int) *Table {
	if numVFIDs <= 0 {
		panic("flowtable: numVFIDs must be positive")
	}
	if bucketSize <= 0 {
		panic("flowtable: bucketSize must be positive")
	}
	if overflowCap < 0 {
		panic("flowtable: overflowCap must be non-negative")
	}
	return &Table{
		numVFIDs:    numVFIDs,
		bucketSize:  bucketSize,
		heads:       make([]int32, numVFIDs),
		overflow:    make(map[Key]*Entry),
		overflowCap: overflowCap,
	}
}

// NumVFIDs returns the VFID space size.
func (t *Table) NumVFIDs() int { return t.numVFIDs }

// Active returns the number of entries currently stored.
func (t *Table) Active() int { return t.active }

// Stats returns a copy of the table statistics.
func (t *Table) Stats() Stats { return t.stats }

// MemoryBytes estimates the hardware memory footprint of the table. Each
// bucket slot packs its state (physical queue id, pause bit, packet counter,
// ingress/egress port ids) into 4 bytes, which reproduces the paper's 256 KB
// figure for the default 16K VFIDs x 4 slots (§3.8).
func (t *Table) MemoryBytes() units.Bytes {
	return units.Bytes(t.numVFIDs * t.bucketSize * 4)
}

// Lookup finds the entry for a VFID arriving on ingress and destined to
// egress. It returns nil if no such entry exists.
func (t *Table) Lookup(v packet.VFID, ingress, egress int) *Entry {
	e, _ := t.find(v, ingress, egress)
	return e
}

// find is Lookup that also reports the length of v's bucket chain when the
// entry is not in it.
func (t *Table) find(v packet.VFID, ingress, egress int) (*Entry, int) {
	t.checkVFID(v)
	depth := 0
	for i := t.heads[v]; i != 0; depth++ {
		e := t.slab[i-1]
		if e.Ingress == ingress && e.Egress == egress {
			return e, depth
		}
		i = e.next
	}
	if len(t.overflow) == 0 {
		return nil, depth
	}
	return t.overflow[Key{VFID: v, Ingress: ingress, Egress: egress}], depth
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
	dup, depth := t.find(v, ingress, egress)
	if dup != nil {
		panic(fmt.Sprintf("flowtable: duplicate insert for VFID %d in=%d out=%d", v, ingress, egress))
	}
	if depth < t.bucketSize {
		e := t.newEntry(v, ingress, egress)
		e.next, t.heads[v] = t.heads[v], e.slot
		return e, InsertedBucket
	}
	t.stats.BucketFull++
	if len(t.overflow) < t.overflowCap {
		e := t.newEntry(v, ingress, egress)
		e.inOverflow = true
		t.overflow[Key{VFID: v, Ingress: ingress, Egress: egress}] = e
		return e, InsertedOverflowCache
	}
	t.stats.CacheFull++
	return nil, InsertFailed
}

// newEntry takes an entry off the free chain, or grows the slab by one, and
// counts the insert.
func (t *Table) newEntry(v packet.VFID, ingress, egress int) *Entry {
	var e *Entry
	if t.free != 0 {
		e = t.slab[t.free-1]
		t.free = e.next
	} else {
		e = new(Entry)
		t.slab = append(t.slab, e)
		e.slot = int32(len(t.slab))
	}
	*e = Entry{VFID: v, Ingress: ingress, Egress: egress, Queue: -1, slot: e.slot}
	t.active++
	t.stats.Inserts++
	if t.active > t.stats.MaxOccupancy {
		t.stats.MaxOccupancy = t.active
	}
	return e
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
		link := &t.heads[e.VFID]
		for *link != 0 && t.slab[*link-1] != e {
			link = &t.slab[*link-1].next
		}
		if *link == 0 {
			panic("flowtable: removing unknown entry")
		}
		*link = e.next
	}
	t.active--
	e.next, t.free = t.free, e.slot
}

// ForEach calls fn for every active entry. Iteration order over bucket slots
// is deterministic; overflow-cache order is not (it is only used for
// statistics).
func (t *Table) ForEach(fn func(*Entry)) {
	for _, i := range t.heads {
		for ; i != 0; i = t.slab[i-1].next {
			fn(t.slab[i-1])
		}
	}
	for _, e := range t.overflow {
		fn(e)
	}
}

func (t *Table) checkVFID(v packet.VFID) {
	if int(v) >= t.numVFIDs {
		panic(fmt.Sprintf("flowtable: VFID %d outside space %d", v, t.numVFIDs))
	}
}
