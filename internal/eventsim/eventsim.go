// Package eventsim implements the discrete-event engine that drives every
// simulation in this repository.
//
// The engine is a single-threaded run loop over a three-tier priority queue:
// the current time bucket as a sorted run, a calendar ring of narrow buckets
// behind it, and a 4-ary min-heap beyond the ring. Determinism is a design
// requirement — two events scheduled for the same picosecond always fire in
// the same order on every run and platform, so a simulation with a fixed seed
// produces identical results everywhere, and at every shard count of a
// partitioned run.
//
// The hot path is allocation-free in steady state: queue records are small
// values (no per-event boxing through interfaces), cancellation handles are
// (slot, generation) values backed by a slot arena with a free chain, and
// cancellation is lazy — a cancelled event is marked in its slot and skipped
// when it surfaces as the earliest pending record, with a periodic compaction
// pass keeping the queue from filling up with dead records. A Timer pushed
// back leaves no dead record: its queued record is re-keyed and filed again
// when it surfaces (see Timer). An event is
// dispatched from its slot where it lies: nothing per-event is built on the
// way from the queue to the callback (see fire).
//
// # Event order
//
// Events fire in the order of their keys, (at, gen, owner, seq):
//
//   - at is the firing instant;
//   - owner is the scheduling entity: the node ID of the device whose
//     dispatch scheduled the event, or Coordinator, the reserved lowest
//     owner, for what a partitioned run's coordinator applies between
//     windows;
//   - seq counts what that owner has scheduled, boundary sends included, so
//     (owner, seq) names one event of the whole run;
//   - gen is 0 for an event scheduled before its instant and its parent's
//     gen+1 for one scheduled at the current instant (outside a dispatch
//     the parent is the Coordinator at generation 0), so an event scheduled
//     at Now fires after everything already pending at Now, whoever owns it.
//
// Every event also has a target, the owner it runs for: a link delivery
// targets the receiving device, every other event the owner that scheduled
// it, and dispatching an event makes its target the current owner. Outside a
// dispatch — set-up, and a coordinator's barrier — the Coordinator is the
// current owner, and the caller names the owner: an event scheduled while
// the Coordinator is current is its target's own (ScheduleCallTo: a source
// NIC's flow arrivals, a switch's ticker), and Act opens an action for a
// named owner under a key the coordinator hands out. The simulator targets
// no event at the Coordinator, so a Coordinator-owned event is one scheduled
// outside any dispatch for the Coordinator itself.
//
// The order is independent of the partition by construction. Devices share
// no simulated state except through links, whose delay is at least the
// lookahead, so by induction over the keys each device's history depends
// only on the keys of what reaches it: its events are the ones targeting it,
// their keys are computed from its own and its senders' histories alone, and
// every shard pops them in key order. A cross-shard delivery carries the key
// the sender gave it, and lands in the receiver's queue exactly where a
// one-shard run files it. What a shard keeps for all its devices must
// therefore never reach a result: the packet and pause-filter pools, the NIC
// and BFC controller slabs, and the shard's recorder buffer (ordered by key
// before anything reads it) hand out storage, never simulated state.
//
// # Queue layout
//
// The queue holds 32-byte index records: the whole ordering key and the slot
// holding the event's cold freight, its callback and argument, which lives
// in the slot arena and never moves. The comparator, entryLess, reads the
// records alone.
//
// Time is cut into buckets of 1<<bucketShift picoseconds, and a record lives
// in one of three tiers by its bucket relative to the current one:
//
//   - cur, the records at or before the current bucket — the only tier
//     events are popped from, and a handful of records deep: one run sorted
//     latest-first, popped from its end in O(1). A record filed into the
//     bucket while it drains goes to its ordered place in the run, found by
//     scanning back from the end; almost every one orders before the run's
//     last and is appended after one comparison;
//   - ring, the next ringSize-1 buckets as unsorted intrusive chains: insert
//     is a store and a bit set with no comparison, which is where link
//     serialisation and propagation delays (half of all events are 1-10 us
//     out, the rest nearer) land;
//   - far, a 4-ary heap over everything beyond the ring window:
//     set-up-scheduled flow arrivals, protocol and sampling timers, cross-DC
//     deliveries.
//
// When cur drains, refill activates the earliest non-empty bucket: it pulls
// the far records the shifted window now covers into the ring and sorts the
// bucket's chain into cur's run, once. All three tiers order by the one
// comparator, and keys are unique, so the order is strict and total: the pop
// sequence is the one a single heap would produce, and the split is invisible
// to every digest.
//
// # Arenas
//
// An engine record, once allocated, never moves and is never copied. Slot and
// park records live in fixed-size pages that are allocated as the arenas grow
// and kept for the scheduler's lifetime, so an arena costs the bytes of its
// pages (TestArenaGrowthBound) and a pointer to a record stays valid while
// the record is in use. Slots are addressed through a page table of fixed
// size inside the Scheduler (slotAt): two dependent loads with no bounds
// check, the cost of a slice index. Free records of both arenas chain through
// the records themselves, so recycling one writes a link and grows nothing.
package eventsim

import (
	"fmt"
	"math/bits"
	"slices"

	"bfc/internal/units"
)

// Coordinator is the reserved lowest owner: what a scheduler runs outside
// any dispatch belongs to it until a caller names another owner. A
// partitioned run's coordinator keys the actions it applies at a barrier
// instant T — the statistics tick, scenario events — as the Coordinator's,
// so they order before every event firing at T.
const Coordinator int32 = -1

// Key is an event's ordering key (see "Event order" in the package comment):
// its firing instant, its generation and owner packed in ord, and its
// owner's sequence number. Keys are comparable across the shards of a
// partitioned simulation, which makes them the currency of the sharded
// engine: boundary deliveries and merged output records are ordered by Key.
// The zero ord is the Coordinator's at generation 0, so Key{At: t, Seq: n} is
// the key of the Coordinator's n-th action, at t.
type Key struct {
	At  units.Time // firing instant
	ord uint64     // gen<<32 | uint32(owner+1)
	Seq uint64     // the owner's count of what it scheduled before
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool { return keyLess(&k, &o) }

func keyLess(a, b *Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	return a.Seq < b.Seq
}

// gen is the key's generation.
func (k *Key) gen() uint64 { return k.ord >> 32 }

// Event is a cancellation handle for a scheduled callback, returned by
// Schedule. It is a small value (copy freely); the zero Event is invalid and
// safe to Cancel (a no-op). A handle becomes stale once its event fires or is
// cancelled; Cancel on a stale handle is a no-op even if the underlying slot
// has been reused for a newer event.
type Event struct {
	slot int32
	gen  uint32
}

// entry is one queue index record: the event's ordering key plus the slot
// holding its cold freight. Entries are 32 bytes, so sifts move
// cache-line-sized values.
type entry struct {
	Key
	slot int32 // arena slot with the cold record
}

// parked is an index record at rest in a ring bucket: an entry plus the link
// to the bucket's next record. It is a type of its own, not another field of
// entry, because the compiler keeps a struct in registers only up to four
// fields: with five, every sift copied entries through the stack in 16-byte
// moves that stall on the narrower stores before them (BenchmarkTimerReset
// read 24 -> 46 ns). Records live in the park arena and are named by handle,
// 1 + arena index, so that 0 can end a chain.
type parked struct {
	Key
	slot int32
	next int32 // handle of the bucket's (or the free chain's) next record
}

// entryLess orders index records by their keys. It reads the records alone:
// keys are unique — (owner, seq) names one event — so the order is strict.
func entryLess(a, b *entry) bool { return keyLess(&a.Key, &b.Key) }

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
// — its target, the callback, and its argument. Slot records are addressed
// by index and never move, so heap sifts never touch them, and fire reads
// them where they lie. There is one callback form: Schedule and its func()
// siblings store runFunc with the func() riding in arg (a func value is
// pointer-shaped, so boxing it allocates nothing).
type slot struct {
	gen    uint32
	state  uint8
	target int32 // the owner the event runs for (see "Event order")
	next   int32 // handle, 1 + id, of the next free slot while this one is free
	call   func(any)
	arg    any
}

// runFunc is the callback of every event scheduled with a plain func().
func runFunc(a any) { a.(func())() }

// Scheduler is a discrete-event scheduler. The zero value is not usable; use
// New.
type Scheduler struct {
	now units.Time

	// key is the key of the dispatch in progress — or of the last one, or of
	// the action Act opened — and owner the owner it runs for. Advancing the
	// clock past them leaves the Coordinator at generation 0 at the new
	// instant. seqs[owner+1] counts what owner has scheduled on this
	// scheduler; it covers every owner a schedule has named as a target.
	key   Key
	owner int32
	seqs  []uint64

	slotN    int32 // slot records ever handed out (see slots)
	slotFree int32 // handle, 1 + id, of the first free slot; 0 if none
	stale    int   // cancelled records still occupying queue positions

	// The three queue tiers (see "Queue layout" in the package comment). cur
	// is a run sorted latest-first under entryLess, its earliest record last,
	// and far a 4-ary heap; ring[b&ringMask] heads the unsorted chain of
	// bucket b for curB < b < curB+ringSize, and occ has one bit per
	// non-empty bucket. Chains are intrusive — a slice per
	// bucket allocated a third more bytes per run in the sizing prototype —
	// and link through parked.next inside park, an arena of fixed pages that
	// are never copied (an append-grown one re-copies about five times its
	// final size; the slot arena below is paged for the same reason). The
	// arena grows to the most records ever parked at once and recycles them
	// through a free chain; indexed by slot it was sized to the most events
	// ever pending instead, 528 KB against 96 KB on the bench's Clos runs, and
	// they ran 4 % slower for the sparser records.
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

	// The slot arena (see "Arenas" in the package comment). A page table of
	// fixed size, not a slice of page pointers, which read ~9 % slower on
	// BenchmarkScheduleFireInFlight; record slices grown by append re-copied
	// about five times their final size, a quarter of the bytes a
	// clos_incast_bfc run allocated. The table holds 1<<22 records, over 200
	// times the most events any benchmark holds pending on one shard;
	// allocating past that panics. The table sits last so the scalar fields
	// above share cache lines.
	slots [slotTable]*[slotPage]slot
}

// Calendar geometry. Narrow buckets are the mechanism, not a tunable: of the
// pops of a loaded Clos run, a quarter fire under 10 ns after they were
// scheduled, a quarter 10-100 ns and half 1-10 us, so a bucket has to be
// narrower than most of those delays or cur turns back into one deep queue,
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
//
// Nor does a denser fabric want narrower buckets. The benchmark's 1 024-host
// fat-tree inputs (BFC, load 0.5 for 20 us plus a 100 us drain, streaming
// statistics), CPU seconds of one sim.Run at one and two shards, min /
// median (interquartile range) of 24 runs in eight alternating cycles on a
// shared, loaded 2-vCPU box:
//
//	                1 shard              2 shards
//	2 ns x 2048     1.27 / 1.83 (0.44)   1.09 / 1.75 (0.33)   <- these constants
//	1 ns x 4096     1.28 / 1.80 (0.51)   1.11 / 1.63 (0.30)
//	512 ps x 8192   1.37 / 1.71 (0.27)   1.09 / 1.74 (0.39)
//
// Every median lies inside the others' interquartile ranges, and neither
// narrower width had the lower cycle median in more than 6 of the 8 cycles.
const (
	bucketShift = 11 // bucket width 1<<11 ps = 2.048 ns
	ringSize    = 2048
	ringMask    = ringSize - 1
	parkShift   = 9 // 512 records = 16 KB per park page
	parkPage    = 1 << parkShift

	slotShift = 10 // 1024 records = 40 KB per slot page
	slotPage  = 1 << slotShift
	slotTable = 1 << 12 // slot pages: 1<<22 records
)

// slotAt addresses slot record id where it lies. The masks keep both indexes
// in range, so the access is two dependent loads, page pointer then record,
// with no bounds check; ids come from allocSlot, which never hands out one
// past the table.
func (s *Scheduler) slotAt(id int32) *slot {
	return &s.slots[uint32(id)>>slotShift&(slotTable-1)][uint32(id)&(slotPage-1)]
}

// tierCounts counts crossings of the seams between the queue's tiers. The
// engine never reads them; the property tests and FuzzQueueOrder's corpus
// check assert on them, so a workload that stops leaving cur fails loudly
// instead of passing vacuously.
type tierCounts struct {
	refillRing, refillFar uint64    // refills whose bucket came from the ring / from far's top
	migrated              uint64    // far records a shifted window pulled into the ring
	compacted             [3]uint64 // cancelled records compact swept from cur, ring, far
	sorted                int       // the most records refill sorted into the run at once
	runInserts            uint64    // records file inserted ahead of the run's last
}

func bucketOf(at units.Time) int64 { return int64(at) >> bucketShift }

// pending is the number of index records in the queue, cancelled or not.
func (s *Scheduler) pending() int { return len(s.cur) + s.ringN + len(s.far) }

// New returns an empty scheduler with the clock at time zero, outside any
// dispatch.
func New() *Scheduler {
	return &Scheduler{owner: Coordinator, seqs: make([]uint64, 1)}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() units.Time { return s.now }

// Pending reports whether the event behind the handle is still scheduled
// (not yet fired and not cancelled).
func (s *Scheduler) Pending(e Event) bool {
	if e.gen == 0 || uint32(e.slot) >= uint32(s.slotN) {
		return false
	}
	c := s.slotAt(e.slot)
	return c.gen == e.gen && (c.state == slotPending || c.state == slotMoved)
}

// CurrentKey returns the key of the event being dispatched, or of the action
// Act opened. Run-level observers (flow-completion and flight-recorder
// records) stamp their records with it, so a sharded run can merge per-shard
// streams into the order of one shard.
func (s *Scheduler) CurrentKey() Key { return s.key }

// Act opens an action outside any dispatch, at the current instant: until
// the next dispatch or clock move, the caller acts for owner under key k, as
// if an event keyed k and targeting owner were being dispatched. What it
// schedules counts on owner's sequence, and CurrentKey returns k. The sim
// coordinator applies a scenario event to a device through it: k is one of
// the Coordinator's keys at the barrier instant, handed out in the order of
// the actions, so the device's own schedules and records stay independent of
// the shard that applies them. k must fire at Now.
func (s *Scheduler) Act(k Key, owner int32) {
	if k.At != s.now {
		panic(fmt.Sprintf("eventsim: action keyed at %v, now is %v", k.At, s.now))
	}
	s.cover(owner)
	s.key, s.owner = k, owner
}

// ChildKey returns the key an event scheduled right now for firing time at
// and targeting target would carry, consuming its owner's next sequence
// number exactly as a local schedule would. A cross-shard link stamps its
// boundary deliveries with it on the sending shard: the send replaces the
// local schedule a one-shard run performs, so it counts on the sender's
// sequence the same way.
func (s *Scheduler) ChildKey(at units.Time, target int32) Key {
	if at < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", at, s.now))
	}
	s.cover(target)
	owner := s.owner
	if owner == Coordinator {
		owner = target // the caller names the owner (see "Event order")
	}
	gen := uint64(0)
	if at == s.now {
		gen = s.key.gen() + 1
	}
	i := owner + 1
	k := Key{At: at, ord: gen<<32 | uint64(uint32(i)), Seq: s.seqs[i]}
	s.seqs[i]++
	return k
}

// cover makes seqs hold owner's count.
func (s *Scheduler) cover(owner int32) {
	if owner < Coordinator {
		panic(fmt.Sprintf("eventsim: owner %d", owner))
	}
	if n := int(owner) + 2 - len(s.seqs); n > 0 {
		s.seqs = append(s.seqs, make([]uint64, n)...)
	}
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (before Now) is a programming error and panics, because it would silently
// reorder causality. Scheduling exactly at Now is allowed and runs after all
// currently pending events at Now.
func (s *Scheduler) Schedule(at units.Time, fn func()) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return s.push(s.ChildKey(at, s.owner), s.owner, runFunc, fn)
}

// ScheduleCall registers fn(arg) to run at absolute time at. Unlike Schedule
// it needs no closure: a device stores one func(any) for its hot path and
// passes the per-event state (typically a *packet.Packet) as arg, keeping
// steady-state scheduling allocation-free. The same past-scheduling and nil
// callback rules as Schedule apply.
func (s *Scheduler) ScheduleCall(at units.Time, fn func(any), arg any) Event {
	return s.ScheduleCallTo(at, s.owner, fn, arg)
}

// ScheduleCallTo is ScheduleCall for an event that runs for target rather
// than for the current owner: a link delivery names the receiving device.
// While the Coordinator is the current owner (outside any dispatch) it names
// the owner too — set-up schedules a source NIC's flow arrivals under the
// NIC.
func (s *Scheduler) ScheduleCallTo(at units.Time, target int32, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return s.push(s.ChildKey(at, target), target, fn, arg)
}

// ScheduleCallInjected registers fn(arg) for target under a key another
// scheduler gave it. It exists for the sharded engine's barrier drains: a
// boundary delivery was scheduled on the sending shard with key k (ChildKey),
// and filing it under that key places it in the receiver's queue exactly
// where a one-shard run orders it. k.At must not precede the clock.
func (s *Scheduler) ScheduleCallInjected(k Key, target int32, fn func(any), arg any) Event {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	if k.At < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", k.At, s.now))
	}
	s.cover(target)
	return s.push(k, target, fn, arg)
}

// push allocates a slot for the event and files its index record under k.
func (s *Scheduler) push(k Key, target int32, call func(any), arg any) Event {
	id, c := s.allocSlot()
	c.target = target
	c.call, c.arg = call, arg
	s.file(entry{Key: k, slot: id})
	if n := s.pending(); n > s.heapHW {
		s.heapHW = n
	}
	return Event{slot: id, gen: c.gen}
}

// file puts e into the tier its bucket belongs to. A bucket below the current
// one is possible — a run call's last peek may already have activated the
// next event's bucket when the clock stops short of it — and belongs in cur
// like the current bucket's records: everything in ring and far fires later.
// In cur, e goes to its place in the run, found from the end: a record that
// orders before the run's last costs one comparison and an append. Any other
// is rare — none on BFC's run fence (2.64 M events), a few hundred on
// DCQCN's (2.32 M), each moving at most a few dozen records.
func (s *Scheduler) file(e entry) {
	switch b := bucketOf(e.At); {
	case b <= s.curB:
		s.cur = append(s.cur, e)
		if n := len(s.cur) - 1; settle(s.cur, n) < n {
			s.tiers.runInserts++
		}
	case b-s.curB < ringSize:
		s.parkEntry(e, b)
	default:
		s.far = append(s.far, e)
		s.siftUp(s.far, len(s.far)-1)
	}
}

// Reserve makes room for n events about to be scheduled past the ring's
// window — a run's flow arrivals, filed before the first event fires — so
// that filing them grows no slice.
func (s *Scheduler) Reserve(n int) { s.far = slices.Grow(s.far, n) }

// HeapHighWater returns the maximum number of index records pending at once
// across the three tiers over the scheduler's lifetime — the peak number of
// simultaneously pending (live or lazily-cancelled) events, the same figure
// the single heap's depth used to be.
func (s *Scheduler) HeapHighWater() int { return s.heapHW }

// allocSlot takes the first slot of the free chain, or else the next record
// of the arena, opening a page when the last one is full, and marks it
// pending under a fresh generation. It returns the slot's id and address.
func (s *Scheduler) allocSlot() (int32, *slot) {
	var id int32
	var sl *slot
	if s.slotFree != 0 {
		id = s.slotFree - 1
		sl = s.slotAt(id)
		s.slotFree = sl.next
	} else {
		id = s.slotN
		if id&(slotPage-1) == 0 {
			if id>>slotShift == slotTable {
				panic(fmt.Sprintf("eventsim: slot table full: more than %d events pending at once", slotTable*slotPage))
			}
			s.slots[id>>slotShift] = new([slotPage]slot)
		}
		s.slotN++
		sl = s.slotAt(id)
	}
	sl.gen++
	sl.state = slotPending
	return id, sl
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
	s.stale++
	if s.stale > 64 && s.stale*2 > s.pending() {
		s.compact()
	}
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.RunUntil(maxTime)
}

// RunUntil executes events with firing time <= until, then advances the clock
// to until (if the queue emptied earlier) or leaves it at the last executed
// event time. It returns the number of events executed.
func (s *Scheduler) RunUntil(until units.Time) uint64 {
	n := s.run(until)
	if until != maxTime {
		s.advance(until)
	}
	return n
}

// RunBefore executes events with firing time strictly less than until, then
// advances the clock to until. It is the window primitive of the sharded
// engine: a shard runs its window [prev, until) exclusively, leaving events
// at exactly until for the next window so that boundary deliveries arriving
// at the barrier instant can still be ordered by key against them, and the
// coordinator's actions at until, keyed before every event at until, apply
// in between.
func (s *Scheduler) RunBefore(until units.Time) uint64 {
	n := s.run(until - 1) // instants are whole picoseconds
	s.advance(until)
	return n
}

// run is the one dispatch loop: it fires the events popReady yields up to
// until, and returns how many it fired.
func (s *Scheduler) run(until units.Time) uint64 {
	executed := uint64(0)
	for {
		id, c, ok := s.popReady(until)
		if !ok {
			return executed
		}
		s.fire(id, c)
		executed++
	}
}

// advance moves the clock up to until after a run loop, leaving the
// Coordinator at generation 0 there.
func (s *Scheduler) advance(until units.Time) {
	if s.now < until {
		s.now = until
		s.key, s.owner = Key{At: until}, Coordinator
	}
}

// Step executes exactly one pending event (skipping cancelled entries) and
// returns false if the queue is empty.
func (s *Scheduler) Step() bool {
	id, c, ok := s.popReady(maxTime)
	if ok {
		s.fire(id, c)
	}
	return ok
}

// popReady removes the earliest live record firing at or before until and
// returns its slot's id and address; the key of the event to fire is left in
// s.key. Cancelled records surfacing on the way are discarded and their slots
// freed, and a moved timer record is filed again under its true key (see
// Timer), neither dispatched nor counted. It reports false when the queue is
// empty or holds only later events.
func (s *Scheduler) popReady(until units.Time) (int32, *slot, bool) {
	for s.peek() {
		n := len(s.cur) - 1
		e := &s.cur[n]
		if e.At > until {
			break
		}
		id := e.slot
		c := s.slotAt(id)
		state := c.state
		if state == slotPending {
			s.key = e.Key
		}
		s.cur = s.cur[:n]
		switch state {
		case slotPending:
			return id, c, true
		case slotMoved:
			s.refile(id)
		default:
			s.stale--
			s.recycle(id, c)
		}
	}
	return 0, nil, false
}

// fire dispatches the popped event in slot id, reading the slot c where it
// lies: its target becomes the current owner (popReady left its key in
// s.key). The slot is freed before the call — the callback may schedule, and
// allocSlot may hand the same slot right back — and the event is counted
// after it (see Executed).
func (s *Scheduler) fire(id int32, c *slot) {
	s.now = s.key.At
	s.owner = c.target
	call, arg := c.call, c.arg
	s.recycle(id, c)
	call(arg)
	s.Executed++
}

const maxTime = units.Time(1<<63 - 1)

// recycle returns slot id (c) to the free chain, clearing its callback
// references so the arena does not pin fired closures or arguments for the
// garbage collector. The generation is bumped on the next allocation, so
// handles pointing at the retired occupancy go stale.
func (s *Scheduler) recycle(id int32, c *slot) {
	c.state = slotFree
	c.call, c.arg = nil, nil
	c.next, s.slotFree = s.slotFree, id+1
}

// Calendar front ---------------------------------------------------------------

// peek makes the run's last the earliest pending record, refilling cur from
// the next non-empty bucket if it has drained; false means the queue is
// empty. popReady goes through it before every pop.
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
	p.Key, p.slot, p.next = e.Key, e.slot, s.ring[i]
	s.ring[i] = n
	s.occ[i>>6] |= 1 << (i & 63)
	s.ringN++
}

// refill, called with cur empty, makes the earliest non-empty
// bucket — the next occupied ring bucket or the bucket of far's top,
// whichever is earlier — the current one: far records the shifted window now
// covers move into the ring (or straight into cur), then the bucket's chain
// joins them and sortRun sorts cur. It reports false when ring and far are
// empty too.
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
	if len(s.far) > 0 && (b < 0 || bucketOf(s.far[0].At) < b) {
		b = bucketOf(s.far[0].At)
		s.tiers.refillFar++
	} else if b >= 0 {
		s.tiers.refillRing++
	} else {
		return false
	}
	s.curB = b
	for len(s.far) > 0 && bucketOf(s.far[0].At)-b < ringSize {
		e := s.far[0]
		s.far = s.popTop(s.far)
		if fb := bucketOf(e.At); fb == b {
			s.cur = append(s.cur, e)
		} else {
			s.parkEntry(e, fb)
			s.tiers.migrated++
		}
	}
	i := b & ringMask
	for n := s.ring[i]; n != 0; s.ringN-- {
		p := s.parked(n)
		s.cur = append(s.cur, entry{p.Key, p.slot})
		n, p.next, s.parkFree = p.next, s.parkFree, n // on to the next; this one joins the free chain
	}
	s.ring[i] = 0
	s.occ[i>>6] &^= 1 << (i & 63)
	s.sortRun()
	return true
}

// sortCutoff is the bucket size past which sortRun leaves insertion sort,
// which calls entryLess directly, for slices.SortFunc. The bfcsim run fence
// (-topology t2 -load 0.6 -incast, seed 7) sorts 4.7 records per refill on
// BFC (2.64 M over 561 k refills) and 3.4 on DCQCN; fewer than 1 refill in
// 200 passes the cutoff, but the largest hold 68 and 477 records, and an
// incast burst at one instant thousands, which must not cost a quadratic
// sort.
const sortCutoff = 16

// sortRun sorts cur latest-first under entryLess, so that the earliest record
// is last.
func (s *Scheduler) sortRun() {
	r := s.cur
	s.tiers.sorted = max(s.tiers.sorted, len(r))
	if len(r) > sortCutoff {
		slices.SortFunc(r, func(a, b entry) int {
			switch {
			case a.Key == b.Key:
				return 0
			case entryLess(&b, &a):
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(r); i++ {
		settle(r, i)
	}
}

// settle moves r[i] back to its place in r[:i+1], a run sorted latest-first
// but for r[i], and returns that place. A record that orders before r[i-1]
// stays where it is after one comparison.
func settle(r []entry, i int) int {
	e := r[i]
	for ; i > 0 && entryLess(&r[i-1], &e); i-- {
		r[i] = r[i-1]
	}
	r[i] = e
	return i
}

// compact drops the lazily-cancelled records from all three tiers, freeing
// their slots. Called from Cancel once dead records outnumber live ones, so
// the amortized cost per cancellation is O(1) sift work plus this occasional
// sweep — over cur's run, far and, through the occupancy bitmap, the
// occupied ring buckets only. The sweep keeps the run's order; far is
// heapified again.
func (s *Scheduler) compact() {
	s.cur = s.sweep(s.cur, &s.tiers.compacted[0])
	s.far = s.sweep(s.far, &s.tiers.compacted[2])
	s.heapify(s.far)
	for w, word := range s.occ {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			head := int32(0)
			for n := s.ring[i]; n != 0; {
				this, p := n, s.parked(n)
				n = p.next
				if s.slotAt(p.slot).state == slotCancelled {
					s.recycle(p.slot, s.slotAt(p.slot))
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

// sweep filters the cancelled records out of h in place, keeping the order
// of the rest, and counts them into dropped.
func (s *Scheduler) sweep(h []entry, dropped *uint64) []entry {
	keep := h[:0]
	for _, e := range h {
		if c := s.slotAt(e.slot); c.state == slotCancelled {
			s.recycle(e.slot, c)
			*dropped++
			continue
		}
		keep = append(keep, e)
	}
	return keep
}

// 4-ary heap ------------------------------------------------------------------
//
// far's primitives over a []entry. A 4-ary layout halves the tree depth of a
// binary heap, trading slightly more comparisons per level for far fewer
// cache-missing moves — the standard d-ary trade that wins for pop-heavy
// workloads on value slices.

// siftUp restores the heap property after appending at index i, moving the
// hole up instead of swapping.
func (s *Scheduler) siftUp(h []entry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(&e, &h[p]) {
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
			if entryLess(&h[j], &h[best]) {
				best = j
			}
		}
		if !entryLess(&h[best], &e) {
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
			if entryLess(&h[j], &h[best]) {
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
