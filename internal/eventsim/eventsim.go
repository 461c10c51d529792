// Package eventsim implements the discrete-event engine that drives every
// simulation in this repository.
//
// The engine is a single-threaded run loop over a three-tier priority queue:
// a calendar ring of narrow time buckets in front of two specialized 4-ary
// min-heaps. Determinism is a design requirement — two events scheduled for
// the same picosecond always fire in the same order on every run and
// platform, so a simulation with a fixed seed produces identical results
// everywhere, and at every shard count of a partitioned run.
//
// The hot path is allocation-free in steady state: queue records are small
// values (no per-event boxing through interfaces), cancellation handles are
// (slot, generation) values backed by a slot arena with a free-list, and
// cancellation is lazy — a cancelled event is marked in its slot and skipped
// when it surfaces as the earliest pending record, with a periodic compaction
// pass keeping the queue from filling up with dead records. A Timer pushed
// back leaves no dead record: its queued record is re-keyed and filed again
// when it surfaces (see Timer). An event is
// dispatched from its slot where it lies: nothing per-event is built on the
// way from the queue to the callback (see fire).
//
// # Queue layout
//
// The queue holds 32-byte index records of (firing time, first chain instant,
// sequence, slot), while the cold freight — the rest of the pedigree, the
// callback, and its argument — lives behind the slot arena and never moves.
// Most same-instant ties break on the in-record chain prefix; only events
// tying on (at, chain[0]) dereference the cold records (see entryLess).
//
// Time is cut into buckets of 1<<bucketShift picoseconds, and a record lives
// in one of three tiers by its bucket relative to the current one:
//
//   - cur, a 4-ary heap of the records at or before the current bucket — the
//     only tier events are popped from, and a handful of records deep;
//   - ring, the next ringSize-1 buckets as unsorted intrusive chains: insert
//     is a store and a bit set with no comparison, which is where link
//     serialisation and propagation delays (half of all events are 1-10 us
//     out, the rest nearer) land;
//   - far, the same heap code over everything beyond the ring window:
//     set-up-scheduled flow arrivals, protocol and sampling timers, cross-DC
//     deliveries.
//
// When cur drains, refill activates the earliest non-empty bucket: it pulls
// the far records the shifted window now covers into the ring and heapifies
// the bucket's chain into cur. All three tiers order by the one comparator,
// entryLess, which ends in the sequence number and is therefore a strict
// total order: the pop sequence is the one a single heap would produce, so
// the split is invisible to every digest.
//
// The pedigree itself is lazy: every event scheduled by one dispatch shares
// the same ancestor arrays, so they are interned once per dispatch in a
// refcounted pedigree arena and each event's slot stores only (pedigree id,
// own child index, own tag). Scheduling copies no arrays, sibling events
// compare by child index without touching the arrays at all, and the full
// wire Key is materialized only on demand — at a boundary push (ChildKey) or
// when an observer records the current dispatch (CurrentKey).
//
// # Arenas
//
// An engine record, once allocated, never moves and is never copied. Slot,
// pedigree and park records live in fixed-size pages that are allocated as
// the arenas grow and kept for the scheduler's lifetime, so an arena costs
// the bytes of its pages (TestArenaGrowthBound) and a pointer to a record
// stays valid while the record is in use. Slots and pedigrees are addressed
// through page tables of fixed size inside the Scheduler (slotAt, pedAt):
// two dependent loads with no bounds check, the cost of a slice index.
//
// # Ordering and the sharded engine
//
// Each event carries a compact pedigree, the invariants of which are:
//
//   - chain[i] is the instant the event's i-th ancestor was scheduled
//     (chain[0] the event's own scheduling instant), SetupTime beyond the
//     recorded history;
//   - tags[i] is the causal-origin tag the i-th ancestor was dispatched
//     under (see Scheduler.curTag);
//   - kids[i] is the i-th ancestor's within-dispatch child index, and kid the
//     event's own: its scheduling position inside its parent's dispatch.
//     Events scheduled during setup (before the first dispatch) all carry
//     kid 0.
//
// Events are ordered by
//
//	(at, chain..., tags (deepest first), kids (deepest first), kid, tag, seq)
//
// Every component except seq is a property of the simulation's causal
// structure that every partition of the fabric computes identically — unlike
// sequence numbers, which depend on the global scheduling history a parallel
// run cannot reproduce. Boundary deliveries injected at a barrier carry their
// key from the sending shard and therefore interleave with the receiver's
// local events exactly as a serial run of the same engine would have
// interleaved them; see entryLess for why the comparison is shaped this way.
package eventsim

import (
	"fmt"
	"math/bits"

	"bfc/internal/units"
)

// SetupTime is the scheduling-chain sentinel for the construction phase that
// runs before the first event. It sorts before every real instant, so events
// scheduled during setup order ahead of same-instant events scheduled by
// other time-zero events — which is also their sequence order.
const SetupTime = units.Time(-1)

// ChainDepth is the number of ancestor scheduling instants each event carries
// in its ordering key. Deeper chains disambiguate more same-instant event
// pairs across shards; the depth only has to exceed the longest run of
// generations over which two physically distinct causal histories stay in
// perfect lockstep, which on Clos fabrics is bounded by the path-length
// asymmetry a couple of hops introduce.
const ChainDepth = 5

// Key is an event's deterministic ordering key: its firing instant followed
// by the instants at which the event, its parent (the event that scheduled
// it), and earlier ancestors were scheduled — Chain[0] is the event's own
// scheduling instant, Chain[i] the i-th ancestor's. Keys are comparable
// across shards of a partitioned simulation, which makes them the currency of
// the sharded engine: boundary deliveries, barrier thresholds, and merged
// flow-completion records are all ordered by Key.
//
// Key is the eager wire form of the engine's lazy in-heap pedigree; it is
// materialized at partition boundaries and never used on the local hot path.
type Key struct {
	At    units.Time             // firing instant
	Chain [ChainDepth]units.Time // scheduling instants, youngest first
	Tags  [ChainDepth]uint64     // ancestor dispatch tags, youngest first
	Kids  [ChainDepth]uint32     // ancestor within-dispatch child indexes
	Kid   uint32                 // own within-dispatch child index
	Tag   uint64                 // own causal-origin tag (see Scheduler tags)
}

// Less reports whether k orders strictly before o. The components follow the
// pedigree recursion (see entryLess): ancestor tags deepest-first, then
// ancestor child indexes deepest-first, then the events' own child indexes
// and tags.
func (k Key) Less(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	for i := 0; i < ChainDepth; i++ {
		if k.Chain[i] != o.Chain[i] {
			return k.Chain[i] < o.Chain[i]
		}
	}
	for i := ChainDepth - 1; i >= 0; i-- {
		if k.Tags[i] != o.Tags[i] {
			return k.Tags[i] < o.Tags[i]
		}
	}
	for i := ChainDepth - 1; i >= 0; i-- {
		if k.Kids[i] != o.Kids[i] {
			return k.Kids[i] < o.Kids[i]
		}
	}
	if k.Kid != o.Kid {
		return k.Kid < o.Kid
	}
	return k.Tag < o.Tag
}

// Event is a cancellation handle for a scheduled callback, returned by
// Schedule. It is a small value (copy freely); the zero Event is invalid and
// safe to Cancel (a no-op). A handle becomes stale once its event fires or is
// cancelled; Cancel on a stale handle is a no-op even if the underlying slot
// has been reused for a newer event.
type Event struct {
	slot int32
	gen  uint32
}

// entry is one queue index record: the hot prefix of the event's ordering key
// plus the slot holding its cold freight. Entries are 32 bytes, so sifts move
// cache-line-sized values and leave the wide pedigree in place.
type entry struct {
	at     units.Time // firing instant
	chain0 units.Time // own scheduling instant (key prefix cached hot)
	seq    uint64     // scheduling sequence, the final local tiebreaker
	slot   int32      // arena slot with the cold record
}

// parked is an index record at rest in a ring bucket: an entry plus the link
// to the bucket's next record. It is a type of its own, not a fifth field of
// entry, because the compiler keeps a struct in registers only up to four
// fields: with five, every sift copied entries through the stack in 16-byte
// moves that stall on the narrower stores before them (BenchmarkTimerReset
// read 24 -> 46 ns). Records live in the park arena and are named by handle,
// 1 + arena index, so that 0 can end a chain.
type parked struct {
	at     units.Time
	chain0 units.Time
	seq    uint64
	slot   int32
	next   int32 // handle of the bucket's (or the free chain's) next record
}

// ped is one interned pedigree: the ancestor arrays shared by every event a
// single dispatch schedules (they all inherit the same shifted chain, tags,
// and kids — only their own child index and tag differ). Records are
// refcounted by the slots pointing at them plus the scheduler's caches and
// recycled through a free-list.
type ped struct {
	chain [ChainDepth]units.Time
	tags  [ChainDepth]uint64
	kids  [ChainDepth]uint32
	refs  int32
}

// noPed marks "no pedigree record": the implicit setup pedigree (chain all
// SetupTime, tags and kids all zero) when used as a parent, and an empty
// cache when used as curPed.
const noPed = int32(-1)

// entryLess orders index records by (firing time, scheduling chain, ancestor
// tags deepest-first, ancestor kids deepest-first, own kid, own tag,
// sequence). The hot prefix (at, chain[0]) decides almost every comparison
// in-record; full prefix ties fall through to the slots, and only distinct
// pedigrees touch the interned arrays — siblings of one dispatch share a
// pedigree record and compare directly by child index.
//
// The shape of the comparison follows the structure of serial dispatch order.
// Two events firing at the same instant execute in the order their parents
// dispatched them; parents at the same instant order by THEIR parents, and so
// on up the pedigree — a same-instant tie is decided at the first divergence
// from the root side. The chain pins the ancestors' dispatch instants; when
// those all tie, the ancestor tags are compared from the oldest recorded
// generation down, mirroring the root-side-first recursion, then the ancestor
// child indexes the same way — two lineages that merge at a common ancestor
// dispatch are separated by their positions inside that dispatch, which is
// exactly the order the serial engine scheduled them in. The events' own kid
// and tag come last, covering siblings of one dispatch and root causes
// themselves colliding (an incast burst's simultaneous flow arrivals, whose
// serial order is their creation order — the flow-ID tags they were scheduled
// under).
//
// A sequence number can still decide a tie the pedigree cannot, which is
// exact for local pairs (seqs are assigned in scheduling order) and
// deterministic — drain order — for pairs involving an injected boundary
// delivery. Because every scheduler of a partitioned run applies this same
// rule, shards interleave remote and local events exactly as a serial run of
// the same engine would; parity holds wherever a cross-shard pair does not
// tie on the entire key, and such full ties are confined to events with equal
// tags, which symmetric workloads do not produce across shards.
func (s *Scheduler) entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.chain0 != b.chain0 {
		return a.chain0 < b.chain0
	}
	ca, cb := s.slotAt(a.slot), s.slotAt(b.slot)
	if ca.ped != cb.ped {
		pa, pb := s.pedAt(ca.ped), s.pedAt(cb.ped)
		for i := 1; i < ChainDepth; i++ {
			if pa.chain[i] != pb.chain[i] {
				return pa.chain[i] < pb.chain[i]
			}
		}
		for i := ChainDepth - 1; i >= 0; i-- {
			if pa.tags[i] != pb.tags[i] {
				return pa.tags[i] < pb.tags[i]
			}
		}
		for i := ChainDepth - 1; i >= 0; i-- {
			if pa.kids[i] != pb.kids[i] {
				return pa.kids[i] < pb.kids[i]
			}
		}
	}
	if ca.kid != cb.kid {
		return ca.kid < cb.kid
	}
	if ca.tag != cb.tag {
		return ca.tag < cb.tag
	}
	return a.seq < b.seq
}

// Slot lifecycle: free -> pending (Schedule) -> {fired, cancelled} -> free.
// The generation counter is bumped on allocation so handles from a previous
// occupancy of the slot cannot cancel the current one. A Timer pushed back
// while pending takes its slot pending -> moved, and popReady files the
// record again under the timer's true key (moved -> pending); a moved event
// is pending to Pending and Cancel.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
	slotMoved
)

// slot is one arena record: cancellation state plus the event's cold freight
// — its interned pedigree reference, its own child index and tag, the
// callback, and its argument. Slot records are addressed by index and never
// move, so heap sifts never touch them, and fire reads them where they lie.
// There is one callback form: Schedule and its func() siblings store runFunc
// with the func() riding in arg (a func value is pointer-shaped, so boxing it
// allocates nothing).
type slot struct {
	gen   uint32
	state uint8
	kid   uint32
	ped   int32
	tag   uint64
	call  func(any)
	arg   any
}

// runFunc is the callback of every event scheduled with a plain func().
func runFunc(a any) { a.(func())() }

// Scheduler is a discrete-event scheduler. The zero value is not usable; use
// New.
type Scheduler struct {
	now     units.Time
	seq     uint64
	slotN   int32 // slot records ever handed out (see slots)
	free    []int32
	pedN    int32 // pedigree records ever handed out (see peds)
	pedFree []int32
	live    int // pending, non-cancelled events
	stale   int // cancelled records still occupying queue positions
	stopped bool

	// The three queue tiers (see "Queue layout" in the package comment). cur
	// and far are 4-ary heaps under entryLess; ring[b&ringMask] heads the
	// unsorted chain of bucket b for curB < b < curB+ringSize, and occ has
	// one bit per non-empty bucket. Chains are intrusive — a slice per bucket
	// allocated a third more bytes per run in the sizing prototype — and link
	// through parked.next inside park, an arena of fixed pages that are never
	// copied (an append-grown one re-copies about five times its final size;
	// the slot and pedigree arenas below are paged for the same reason).
	// The arena grows to the most records ever parked at once and recycles
	// them through a free chain; indexed by slot it was sized to the most
	// events ever pending instead, 528 KB against 96 KB on the bench's Clos
	// runs, and they ran 4 % slower for the sparser records.
	cur      []entry
	far      []entry
	curB     int64 // current bucket: cur holds every record at or before it
	ringN    int   // records parked in the ring
	ring     [ringSize]int32
	occ      [ringSize / 64]uint64
	park     []*[parkPage]parked
	parkN    int32 // park records ever handed out
	parkFree int32 // head of the free chain of park records
	tiers    tierCounts

	// parentPed is the interned pedigree of the event currently being
	// dispatched — the ancestor arrays its children inherit after one
	// generation shift — or noPed during setup, which stands for the sentinel
	// pedigree (chain all SetupTime, tags and kids zero). curPed caches the
	// children's shifted pedigree, built lazily by the first child scheduled
	// and invalidated whenever the dispatch or the clock changes.
	parentPed int32
	curPed    int32

	// curKid is the dispatching event's own child index within its parent's
	// dispatch; childN counts the children the current dispatch has scheduled
	// so far (including boundary sends that consume a key via ChildKey), so
	// each child's kid is its scheduling position inside the dispatch — the
	// partition-independent equivalent of the serial engine's relative
	// sequence numbers. Events scheduled during setup (before the first
	// dispatch) all carry kid 0: per-shard setup schedules only owned nodes,
	// so a setup counter would depend on the partition.
	curKid      uint32
	childN      uint32
	dispatching bool

	// curTag is the causal-origin tag of the event currently being
	// dispatched. Tags ride the causal chain: an event scheduled during a
	// dispatch inherits the dispatching event's tag unless the caller
	// overrides it (ScheduleTagged and friends). The simulation stamps root
	// causes whose creation order is meaningful — flow arrivals carry their
	// flow ID, which ascends in schedule order — so events whose entire
	// scheduling chain ties (lockstep symmetric histories) still order the
	// way their root causes were created, on any shard of a partitioned run.
	curTag uint64

	// Executed counts events whose callbacks have returned. It is read from
	// inside callbacks (the series sampler's tick reads it), where it must
	// exclude the running event: fire counts after the call, and the sharded
	// engine's parity with the serial one depends on it.
	Executed uint64

	// heapHW tracks the maximum number of index records ever pending across
	// the three tiers (includes lazily-cancelled records awaiting discard).
	// Maintained unconditionally: one compare per insert, observable via
	// HeapHighWater for execution profiling.
	heapHW int

	// The slot and pedigree arenas (see "Arenas" in the package comment). A
	// page table of fixed size, not a slice of page pointers, which read ~9 %
	// slower on BenchmarkScheduleFireInFlight; record slices grown by append
	// re-copied about five times their final size, a quarter of the bytes a
	// clos_incast_bfc run allocated. Each table holds 1<<22 records, over 200
	// times the most events any benchmark holds pending on one shard;
	// allocating past that panics. The tables sit last so the scalar fields
	// above share cache lines.
	slots [slotTable]*[slotPage]slot
	peds  [pedTable]*[pedPage]ped
}

// Calendar geometry. Narrow buckets are the mechanism, not a tunable: of the
// pops of a loaded Clos run, a quarter fire under 10 ns after they were
// scheduled, a quarter 10-100 ns and half 1-10 us, so a bucket has to be
// narrower than most of those delays or cur turns back into the deep heap,
// and the window has to cover a propagation delay or half the events go
// through far. CPU seconds of single bfcsim runs (-topology t2 -load 0.6
// -incast -duration 300us -drain 2ms -seed 7), best / median of five
// alternating rounds in one (slow) session, BFC and DCQCN:
//
//	one heap (parent)   1.61 / 1.76   1.03 / 1.09
//	2 ns x 1024         1.23 / 1.35   0.75 / 0.80
//	2 ns x 2048         1.23 / 1.29   0.69 / 0.79   <- these constants
//	4 ns x 2048         1.29 / 1.37   0.71 / 0.78
//	8 ns x 512          1.29 / 1.39   0.78 / 0.84
//	8 ns x 2048         1.30 / 1.44   0.80 / 0.84
//	8 ns x 8192         1.28 / 1.46   0.80 / 0.86
//	33 ns x 2048        1.28 / 1.45   0.83 / 0.87
//	131 ns x 1024       1.49 / 1.59   0.92 / 0.94
//	1 us x 256          1.51 / 1.72   0.93 / 1.04
const (
	bucketShift = 11 // bucket width 1<<11 ps = 2.048 ns
	ringSize    = 2048
	ringMask    = ringSize - 1
	parkShift   = 9 // 512 records = 16 KB per park page
	parkPage    = 1 << parkShift

	slotShift = 10 // 1024 records = 48 KB per slot page
	slotPage  = 1 << slotShift
	slotTable = 1 << 12 // slot pages: 1<<22 records
	pedShift  = 9       // 512 records = 52 KB per pedigree page
	pedPage   = 1 << pedShift
	pedTable  = 1 << 13 // pedigree pages: 1<<22 records
)

// slotAt addresses slot record id where it lies. The masks keep both indexes
// in range, so the access is two dependent loads, page pointer then record,
// with no bounds check; ids come from allocSlot, which never hands out one
// past the table.
func (s *Scheduler) slotAt(id int32) *slot {
	return &s.slots[uint32(id)>>slotShift&(slotTable-1)][uint32(id)&(slotPage-1)]
}

// pedAt addresses pedigree record id where it lies, as slotAt does slots.
func (s *Scheduler) pedAt(id int32) *ped {
	return &s.peds[uint32(id)>>pedShift&(pedTable-1)][uint32(id)&(pedPage-1)]
}

// tierCounts counts crossings of the seams between the queue's tiers. The
// engine never reads them; the property tests and FuzzQueueOrder's corpus
// check assert on them, so a workload that stops leaving cur fails loudly
// instead of passing vacuously.
type tierCounts struct {
	refillRing, refillFar uint64    // refills whose bucket came from the ring / from far's top
	migrated              uint64    // far records a shifted window pulled into the ring
	compacted             [3]uint64 // cancelled records compact swept from cur, ring, far
}

func bucketOf(at units.Time) int64 { return int64(at) >> bucketShift }

// pending is the number of index records in the queue, cancelled or not.
func (s *Scheduler) pending() int { return len(s.cur) + s.ringN + len(s.far) }

// New returns an empty scheduler with the clock at time zero.
func New() *Scheduler {
	return &Scheduler{parentPed: noPed, curPed: noPed}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() units.Time { return s.now }

// Len returns the number of pending (non-cancelled) events in O(1).
func (s *Scheduler) Len() int { return s.live }

// Pending reports whether the event behind the handle is still scheduled
// (not yet fired and not cancelled).
func (s *Scheduler) Pending(e Event) bool {
	if e.gen == 0 || uint32(e.slot) >= uint32(s.slotN) {
		return false
	}
	c := s.slotAt(e.slot)
	return c.gen == e.gen && (c.state == slotPending || c.state == slotMoved)
}

// CurrentKey returns the full ordering key of the event currently being
// dispatched, materialized from its interned pedigree. Run-level observers
// (flow-completion recording) use it to tag their samples with the
// partition-independent identity of the triggering event, so a sharded run
// can merge per-shard streams into serial order.
func (s *Scheduler) CurrentKey() Key {
	k := Key{At: s.now, Kid: s.curKid, Tag: s.curTag}
	if s.parentPed != noPed {
		p := s.pedAt(s.parentPed)
		k.Chain, k.Tags, k.Kids = p.chain, p.tags, p.kids
	} else {
		for i := range k.Chain {
			k.Chain[i] = SetupTime
		}
	}
	return k
}

// ChildKey returns the key an event scheduled right now for firing time at
// would carry, consuming the current dispatch's next child index exactly as a
// local Schedule call would. The sharded engine stamps boundary deliveries
// with it on the sending shard: the send replaces the local Schedule the
// serial engine would have performed, so it must advance the child counter
// identically for the shard's later children to keep their serial indexes.
func (s *Scheduler) ChildKey(at units.Time) Key {
	p := s.pedAt(s.ensureCurPed())
	return Key{At: at, Chain: p.chain, Tags: p.tags, Kids: p.kids, Kid: s.nextKid(), Tag: s.curTag}
}

// ensureCurPed returns the interned pedigree the current dispatch's children
// share, building it on the first child: the current instant and the
// dispatching event's own tag and kid, then its ancestor arrays shifted one
// generation back.
func (s *Scheduler) ensureCurPed() int32 {
	if s.curPed != noPed {
		return s.curPed
	}
	id := s.allocPed()
	p := s.pedAt(id)
	p.chain[0] = s.now
	p.tags[0] = s.curTag
	p.kids[0] = s.curKid
	if s.parentPed != noPed {
		pp := s.pedAt(s.parentPed)
		copy(p.chain[1:], pp.chain[:ChainDepth-1])
		copy(p.tags[1:], pp.tags[:ChainDepth-1])
		copy(p.kids[1:], pp.kids[:ChainDepth-1])
	} else {
		for i := 1; i < ChainDepth; i++ {
			p.chain[i] = SetupTime
			p.tags[i] = 0
			p.kids[i] = 0
		}
	}
	p.refs = 1 // the cache's own reference, dropped on invalidation
	s.curPed = id
	return id
}

// allocPed takes a pedigree record from the free-list, or else the next
// record of the arena, opening a page when the last one is full. The caller
// writes every field.
func (s *Scheduler) allocPed() int32 {
	if n := len(s.pedFree); n > 0 {
		id := s.pedFree[n-1]
		s.pedFree = s.pedFree[:n-1]
		return id
	}
	id := s.pedN
	if id&(pedPage-1) == 0 {
		if id>>pedShift == pedTable {
			panic(fmt.Sprintf("eventsim: pedigree table full: more than %d pedigree records live at once", pedTable*pedPage))
		}
		s.peds[id>>pedShift] = new([pedPage]ped)
	}
	s.pedN++
	return id
}

// releasePed drops one reference to a pedigree record, recycling it when the
// last reference goes away. noPed is a no-op.
func (s *Scheduler) releasePed(id int32) {
	if id == noPed {
		return
	}
	p := s.pedAt(id)
	p.refs--
	if p.refs == 0 {
		s.pedFree = append(s.pedFree, id)
	}
}

// dropCurPed invalidates the cached children's pedigree. Called when the
// dispatch changes and when the clock advances outside a dispatch (the cached
// chain[0] would go stale).
func (s *Scheduler) dropCurPed() {
	if s.curPed != noPed {
		s.releasePed(s.curPed)
		s.curPed = noPed
	}
}

// nextKid returns (and consumes) the current dispatch's next child index.
// Outside dispatch — during setup — every event carries kid 0 (see curKid).
func (s *Scheduler) nextKid() uint32 {
	if !s.dispatching {
		return 0
	}
	k := s.childN
	s.childN++
	return k
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (before Now) is a programming error and panics, because it would silently
// reorder causality. Scheduling exactly at Now is allowed and runs after all
// currently pending events at Now that were scheduled earlier.
func (s *Scheduler) Schedule(at units.Time, fn func()) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return s.push(at, s.curTag, runFunc, fn)
}

// push validates the firing time, allocates a slot referencing the current
// dispatch's interned pedigree, and inserts the hot index record into the
// heap. No pedigree arrays are copied: children of one dispatch share one
// record and differ only in their child index and tag.
func (s *Scheduler) push(at units.Time, tag uint64, call func(any), arg any) Event {
	if at < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", at, s.now))
	}
	pid := s.ensureCurPed()
	s.pedAt(pid).refs++
	id, c := s.allocSlot()
	c.ped = pid
	c.kid = s.nextKid()
	c.tag = tag
	c.call, c.arg = call, arg
	s.insert(at, id, s.now)
	return Event{slot: id, gen: c.gen}
}

// insert files the hot index record for slot id under the next sequence
// number and counts the new event.
func (s *Scheduler) insert(at units.Time, id int32, chain0 units.Time) {
	s.file(entry{at: at, chain0: chain0, seq: s.seq, slot: id})
	s.seq++
	if n := s.pending(); n > s.heapHW {
		s.heapHW = n
	}
	s.live++
}

// file puts e into the tier its bucket belongs to. A bucket below the current
// one is possible — a run call's last peek may already have activated the
// next event's bucket when the clock stops short of it — and belongs in cur
// like the current bucket's records: everything in ring and far fires later.
func (s *Scheduler) file(e entry) {
	switch b := bucketOf(e.at); {
	case b <= s.curB:
		s.cur = append(s.cur, e)
		s.siftUp(s.cur, len(s.cur)-1)
	case b-s.curB < ringSize:
		s.parkEntry(e, b)
	default:
		s.far = append(s.far, e)
		s.siftUp(s.far, len(s.far)-1)
	}
}

// HeapHighWater returns the maximum number of index records pending at once
// across the three tiers over the scheduler's lifetime — the peak number of
// simultaneously pending (live or lazily-cancelled) events, the same figure
// the single heap's depth used to be.
func (s *Scheduler) HeapHighWater() int { return s.heapHW }

// allocSlot takes a slot from the free-list, or else the next record of the
// arena, opening a page when the last one is full, and marks it pending under
// a fresh generation. It returns the slot's id and address.
func (s *Scheduler) allocSlot() (int32, *slot) {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.slotN
		if id&(slotPage-1) == 0 {
			if id>>slotShift == slotTable {
				panic(fmt.Sprintf("eventsim: slot table full: more than %d events pending at once", slotTable*slotPage))
			}
			s.slots[id>>slotShift] = new([slotPage]slot)
		}
		s.slotN++
	}
	sl := s.slotAt(id)
	sl.gen++
	sl.state = slotPending
	return id, sl
}

// ScheduleAfter registers fn to run d after the current time.
func (s *Scheduler) ScheduleAfter(d units.Time, fn func()) Event {
	return s.Schedule(s.now+d, fn)
}

// ScheduleCall registers fn(arg) to run at absolute time at. Unlike Schedule
// it needs no closure: a device stores one func(any) for its hot path and
// passes the per-event state (typically a *packet.Packet) as arg, keeping
// steady-state scheduling allocation-free. The same past-scheduling and nil
// callback rules as Schedule apply.
func (s *Scheduler) ScheduleCall(at units.Time, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return s.push(at, s.curTag, fn, arg)
}

// ScheduleCallInjected registers fn(arg) under an explicit ordering key whose
// scheduling chain may lie in the receiver's past. It exists for the sharded
// engine's barrier drains: a boundary delivery was really scheduled on the
// sending shard with key k, and injecting it with that key (rather than the
// drain-time chain) places it in the receiver's heap exactly where the serial
// engine would have ordered it. Only k.At must not precede the clock. The
// wire key is re-interned as a single-use pedigree record.
func (s *Scheduler) ScheduleCallInjected(k Key, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	if k.At < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", k.At, s.now))
	}
	pid := s.allocPed()
	p := s.pedAt(pid)
	p.chain = k.Chain
	p.tags = k.Tags
	p.kids = k.Kids
	p.refs = 1
	id, c := s.allocSlot()
	c.ped = pid
	c.kid = k.Kid
	c.tag = k.Tag
	c.call, c.arg = fn, arg
	s.insert(k.At, id, k.Chain[0])
	return Event{slot: id, gen: c.gen}
}

// ScheduleTagged registers fn to run at absolute time at under an explicit
// causal-origin tag instead of the inherited one. The simulation uses it to
// stamp root causes — most importantly flow arrivals, tagged with their flow
// ID — so that every event descending from the root carries the tag through
// the inheritance in Schedule/ScheduleCall.
func (s *Scheduler) ScheduleTagged(at units.Time, tag uint64, fn func()) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return s.push(at, tag, runFunc, fn)
}

// ScheduleCallTagged is ScheduleCall with an explicit causal-origin tag. Link
// delivery events use it to carry the transported packet's flow ID rather
// than the tag of the event that happened to start the transmission (a busy
// egress port serializes queued packets from whichever flow's event freed it).
func (s *Scheduler) ScheduleCallTagged(at units.Time, tag uint64, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return s.push(at, tag, fn, arg)
}

// Cancel removes a pending event. Cancelling the zero Event, an
// already-fired or already-cancelled event is a no-op. Deletion is lazy: the
// slot is marked and the index record is discarded when it surfaces, or
// during compaction once dead records dominate the queue.
func (s *Scheduler) Cancel(e Event) {
	if !s.Pending(e) {
		return
	}
	s.slotAt(e.slot).state = slotCancelled
	s.live--
	s.stale++
	if s.stale > 64 && s.stale*2 > s.pending() {
		s.compact()
	}
}

// Stop aborts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	s.RunUntil(maxTime)
}

// RunUntil executes events with firing time <= until, then advances the clock
// to until (if the queue emptied earlier) or leaves it at the last executed
// event time. It returns the number of events executed.
func (s *Scheduler) RunUntil(until units.Time) uint64 {
	n := s.run(until, nil)
	if until != maxTime {
		s.advance(until)
	}
	return n
}

// RunBefore executes events with firing time strictly less than until, then
// advances the clock to until. It is the window primitive of the sharded
// engine: a shard runs its window [prev, until) exclusively, leaving events
// at exactly until for the next window so that boundary deliveries arriving
// at the barrier instant can still be ordered by key against them.
func (s *Scheduler) RunBefore(until units.Time) uint64 {
	n := s.run(until-1, nil) // instants are whole picoseconds
	s.advance(until)
	return n
}

// RunBeforeKey executes events whose ordering key is strictly below k, then
// advances the clock to k.At. The sim coordinator uses it at statistics and
// scenario barriers: the sampling tick at instant T has the key (T, T-period,
// T-2·period, ...) of a ticker started during setup, so the coordinator
// flushes exactly the events ordered before the tick, takes the sample, and
// leaves the rest — including events firing at T but scheduled later in the
// chain order — for the next window.
func (s *Scheduler) RunBeforeKey(k Key) uint64 {
	n := s.run(k.At, &k)
	s.advance(k.At)
	return n
}

// run is the one dispatch loop: it fires the events popReady yields under
// (until, k) until there are none or a callback calls Stop, and returns how
// many it fired.
func (s *Scheduler) run(until units.Time, k *Key) uint64 {
	s.stopped = false
	executed := uint64(0)
	for !s.stopped {
		id, c, at, ok := s.popReady(until, k)
		if !ok {
			break
		}
		s.fire(id, c, at)
		executed++
	}
	return executed
}

// advance moves the clock up to until after a run loop that was not stopped.
func (s *Scheduler) advance(until units.Time) {
	if !s.stopped && s.now < until {
		s.now = until
		s.dropCurPed()
	}
}

// keyBefore reports whether e's ordering key is strictly below k, mirroring
// entryLess.
func (s *Scheduler) keyBefore(e *entry, k *Key) bool {
	if e.at != k.At {
		return e.at < k.At
	}
	if e.chain0 != k.Chain[0] {
		return e.chain0 < k.Chain[0]
	}
	c := s.slotAt(e.slot)
	p := s.pedAt(c.ped)
	for i := 1; i < ChainDepth; i++ {
		if p.chain[i] != k.Chain[i] {
			return p.chain[i] < k.Chain[i]
		}
	}
	for i := ChainDepth - 1; i >= 0; i-- {
		if p.tags[i] != k.Tags[i] {
			return p.tags[i] < k.Tags[i]
		}
	}
	for i := ChainDepth - 1; i >= 0; i-- {
		if p.kids[i] != k.Kids[i] {
			return p.kids[i] < k.Kids[i]
		}
	}
	if c.kid != k.Kid {
		return c.kid < k.Kid
	}
	return c.tag < k.Tag
}

// Step executes exactly one pending event (skipping cancelled entries) and
// returns false if the queue is empty.
func (s *Scheduler) Step() bool {
	id, c, at, ok := s.popReady(maxTime, nil)
	if ok {
		s.fire(id, c, at)
	}
	return ok
}

// popReady removes the earliest live record that is ready — firing time <=
// until, or with a threshold key, ordered strictly below k — and returns its
// slot's id and address and its firing time. Cancelled records surfacing on
// the way are discarded and their slots freed: within the horizon only, or
// under a threshold key wherever they lie (dead either way, they must not
// shadow the next live record's key). A moved timer record surfacing the
// same way is filed again under its true key (see Timer), neither dispatched
// nor counted; under a threshold key only if its filed key is below it, which
// keyBefore reads from the slot's pedigree, still the filed one. It reports
// false when the queue is empty or holds only later events.
func (s *Scheduler) popReady(until units.Time, k *Key) (int32, *slot, units.Time, bool) {
	for s.peek() {
		e := &s.cur[0]
		id, at := e.slot, e.at
		c := s.slotAt(id)
		state := c.state
		if k == nil {
			if at > until {
				break
			}
		} else if state != slotCancelled && !s.keyBefore(e, k) {
			break
		}
		s.cur = s.popTop(s.cur)
		switch state {
		case slotPending:
			return id, c, at, true
		case slotMoved:
			s.refile(id)
		default:
			s.stale--
			s.freeSlot(id)
		}
	}
	return 0, nil, 0, false
}

// fire dispatches the popped event in slot id, reading the slot c where it
// lies: the event's pedigree reference moves to parentPed (the previous
// parent's is dropped), its kid and tag become the current ones, the cached
// children's pedigree and the child counter are reset. The slot is freed
// before the call — the callback may schedule, and allocSlot may hand the
// same slot right back — and the event is counted after it (see Executed).
func (s *Scheduler) fire(id int32, c *slot, at units.Time) {
	s.now = at
	s.releasePed(s.parentPed)
	s.parentPed, c.ped = c.ped, noPed
	s.curKid = c.kid
	s.curTag = c.tag
	s.dropCurPed()
	s.childN = 0
	s.dispatching = true
	call, arg := c.call, c.arg
	s.recycle(id, c)
	s.live--
	call(arg)
	s.Executed++
}

const maxTime = units.Time(1<<63 - 1)

// freeSlot drops slot id's pedigree reference and returns the slot to the
// free-list.
func (s *Scheduler) freeSlot(id int32) {
	c := s.slotAt(id)
	s.releasePed(c.ped)
	c.ped = noPed
	s.recycle(id, c)
}

// recycle returns slot id (c, its pedigree reference already gone) to the
// free-list, clearing its callback references so the arena does not pin fired
// closures or arguments for the garbage collector. The generation is bumped
// on the next allocation, so handles pointing at the retired occupancy go
// stale.
func (s *Scheduler) recycle(id int32, c *slot) {
	c.state = slotFree
	c.call, c.arg = nil, nil
	s.free = append(s.free, id)
}

// Calendar front ---------------------------------------------------------------

// peek makes cur[0] the earliest pending record, refilling cur from the next
// non-empty bucket if it has drained; false means the queue is empty. Every
// reader of cur[0] goes through it.
func (s *Scheduler) peek() bool { return len(s.cur) > 0 || s.refill() }

// parked addresses the park record with handle n.
func (s *Scheduler) parked(n int32) *parked {
	return &s.park[(n-1)>>parkShift][(n-1)&(parkPage-1)]
}

// parkEntry links e into the ring chain of bucket b, curB < b < curB+ringSize,
// in a recycled park record if there is one.
func (s *Scheduler) parkEntry(e entry, b int64) {
	n := s.parkFree
	if n != 0 {
		s.parkFree = s.parked(n).next
	} else {
		if int(s.parkN)>>parkShift == len(s.park) {
			s.park = append(s.park, new([parkPage]parked))
		}
		s.parkN++
		n = s.parkN
	}
	i := b & ringMask
	p := s.parked(n)
	p.at, p.chain0, p.seq, p.slot, p.next = e.at, e.chain0, e.seq, e.slot, s.ring[i]
	s.ring[i] = n
	s.occ[i>>6] |= 1 << (i & 63)
	s.ringN++
}

// refill, called with cur empty, makes the earliest non-empty bucket — the
// next occupied ring bucket or the bucket of far's top, whichever is earlier
// — the current one: far records the shifted window now covers move into the
// ring (or straight into cur), then the bucket's chain is heapified into
// cur. It reports false when ring and far are empty too.
func (s *Scheduler) refill() bool {
	b := int64(-1)
	if s.ringN > 0 {
		// The window is ringSize-1 buckets, so the circular scan from the
		// index after curB's meets the occupied buckets in time order and,
		// with at least one bit set, terminates.
		start := (s.curB + 1) & ringMask
		w := start >> 6
		word := s.occ[w] &^ (1<<(start&63) - 1)
		for word == 0 {
			w = (w + 1) & (ringSize/64 - 1)
			word = s.occ[w]
		}
		b = s.curB + 1 + (w<<6+int64(bits.TrailingZeros64(word))-start)&ringMask
	}
	if len(s.far) > 0 && (b < 0 || bucketOf(s.far[0].at) < b) {
		b = bucketOf(s.far[0].at)
		s.tiers.refillFar++
	} else if b >= 0 {
		s.tiers.refillRing++
	} else {
		return false
	}
	s.curB = b
	for len(s.far) > 0 && bucketOf(s.far[0].at)-b < ringSize {
		e := s.far[0]
		s.far = s.popTop(s.far)
		if fb := bucketOf(e.at); fb == b {
			s.cur = append(s.cur, e)
		} else {
			s.parkEntry(e, fb)
			s.tiers.migrated++
		}
	}
	i := b & ringMask
	for n := s.ring[i]; n != 0; s.ringN-- {
		p := s.parked(n)
		s.cur = append(s.cur, entry{at: p.at, chain0: p.chain0, seq: p.seq, slot: p.slot})
		n, p.next, s.parkFree = p.next, s.parkFree, n // on to the next; this one joins the free chain
	}
	s.ring[i] = 0
	s.occ[i>>6] &^= 1 << (i & 63)
	s.heapify(s.cur)
	return true
}

// compact drops the lazily-cancelled records from all three tiers, freeing
// their slots. Called from Cancel once dead records outnumber live ones, so
// the amortized cost per cancellation is O(1) sift work plus this occasional
// sweep — over the two heaps and, through the occupancy bitmap, the occupied
// ring buckets only.
func (s *Scheduler) compact() {
	s.cur = s.compactHeap(s.cur, &s.tiers.compacted[0])
	s.far = s.compactHeap(s.far, &s.tiers.compacted[2])
	for w, word := range s.occ {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			head := int32(0)
			for n := s.ring[i]; n != 0; {
				this, p := n, s.parked(n)
				n = p.next
				if s.slotAt(p.slot).state == slotCancelled {
					s.freeSlot(p.slot)
					s.ringN--
					s.tiers.compacted[1]++
					p.next, s.parkFree = s.parkFree, this
				} else {
					p.next, head = head, this
				}
			}
			if s.ring[i] = head; head == 0 {
				s.occ[w] &^= 1 << (i & 63)
			}
		}
	}
	s.stale = 0
}

// compactHeap filters the cancelled records out of h in place and restores
// the heap property over what is left.
func (s *Scheduler) compactHeap(h []entry, dropped *uint64) []entry {
	keep := h[:0]
	for _, e := range h {
		if s.slotAt(e.slot).state == slotCancelled {
			s.freeSlot(e.slot)
			*dropped++
			continue
		}
		keep = append(keep, e)
	}
	s.heapify(keep)
	return keep
}

// 4-ary heap ------------------------------------------------------------------
//
// cur and far share one set of primitives over a []entry. A 4-ary layout
// halves the tree depth of a binary heap, trading slightly more comparisons
// per level for far fewer cache-missing moves — the standard d-ary trade that
// wins for pop-heavy workloads on value slices.

// siftUp restores the heap property after appending at index i, moving the
// hole up instead of swapping.
func (s *Scheduler) siftUp(h []entry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.entryLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown restores the heap property from index i downward.
func (s *Scheduler) siftDown(h []entry, i int) {
	n := len(h)
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if s.entryLess(&h[j], &h[best]) {
				best = j
			}
		}
		if !s.entryLess(&h[best], &e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// heapify establishes the heap property over an arbitrarily ordered h.
func (s *Scheduler) heapify(h []entry) {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		s.siftDown(h, i)
	}
}

// popTop removes the minimum entry of h and returns the shortened heap, with
// the bottom-up strategy: walk the hole from the root to a leaf along minimal
// children, drop the tail element into the hole, and bubble it up. The tail
// element is near-maximal for a pop-heavy workload, so the classic top-down
// sift would descend every level anyway while paying an extra comparison per
// level against it; bottom-up pays only the child-minimum comparisons on the
// way down and the bubble-up almost always stops immediately.
func (s *Scheduler) popTop(h []entry) []entry {
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if s.entryLess(&h[j], &h[best]) {
				best = j
			}
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
	s.siftUp(h, i)
	return h
}
