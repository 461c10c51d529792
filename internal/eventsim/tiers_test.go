package eventsim

import (
	"math/rand"
	"slices"
	"testing"

	"bfc/internal/units"
)

// Test support and seam tests for the three-tier queue (cur / ring / far).
// The engine's ordering tests predate the calendar front and drew delays of a
// few picoseconds — all inside bucket 0, so they would pass with ring and far
// broken. Everything here is about making a test leave cur, and proving that
// it did.

const (
	testBucket = units.Time(1) << bucketShift // one bucket's width
	testWindow = testBucket * ringSize        // distance to the first bucket beyond the ring
)

// tierDelays is the grid the property tests draw scheduling delays from. The
// first four keep the original colliding structure (a coarse sub-bucket grid:
// unrelated lineages collide on whole chain prefixes, which pushes
// comparisons into tags / kids / seq); the rest cross the tiers and sit on
// their seams: a few buckets, the ring window's last buckets, the first
// bucket outside it, and far beyond. Sums of a few grid values still collide.
var tierDelays = [...]units.Time{
	0, 5, 10, 15,
	testBucket, 2 * testBucket, 3*testBucket + 5,
	testWindow - 2*testBucket, testWindow - testBucket,
	testWindow, testWindow + testBucket,
	5 * testWindow,
}

// drawTierDelay picks a sub-bucket delay half the time and a tier-crossing
// one otherwise.
func drawTierDelay(rng *rand.Rand) units.Time {
	if rng.Intn(2) == 0 {
		return tierDelays[rng.Intn(4)]
	}
	return tierDelays[4+rng.Intn(len(tierDelays)-4)]
}

// tierReach accumulates, over the schedulers a test creates, the evidence
// that the test left cur: inserts observed per tier plus the engine's own
// seam counters.
type tierReach struct {
	inserts [3]uint64 // records first filed under cur, ring, far
	tierCounts
	timers timerReach

	// The first slot-page seam: the most events pending at once, and the
	// cancels, Stops and Resets of a pending handle on the last slot of a page
	// and on the first slot of the next.
	peak int
	seam [2]uint64
}

// noteSeam counts an operation on the pending handle h if its slot borders a
// slot-page seam.
func (r *tierReach) noteSeam(h Event) {
	switch {
	case h.slot%slotPage == slotPage-1:
		r.seam[0]++
	case h.slot >= slotPage && h.slot%slotPage == 0:
		r.seam[1]++
	}
}

// timerReach counts, in FuzzQueueOrder's model, the timer paths a run took.
type timerReach struct {
	lazy, fallback uint64 // Resets that re-keyed a record / cancelled and scheduled
	movedKept      uint64 // moved records a compaction swept past
}

// tierSizes counts the records in each tier, cur's run and side together.
func tierSizes(s *Scheduler) [3]int { return [3]int{len(s.cur) + len(s.side), s.ringN, len(s.far)} }

// checkCur fails unless cur's run is sorted latest-first and side is a heap,
// both under entryLess.
func checkCur(t *testing.T, s *Scheduler) {
	t.Helper()
	for i := 1; i < len(s.cur); i++ {
		if !entryLess(&s.cur[i], &s.cur[i-1]) {
			t.Fatalf("run out of order at %d of %d: %+v before %+v", i, len(s.cur), s.cur[i-1], s.cur[i])
		}
	}
	for i := 1; i < len(s.side); i++ {
		if p := (i - 1) / 4; entryLess(&s.side[i], &s.side[p]) {
			t.Fatalf("side is no heap: %d of %d (%+v) orders before its parent %+v", i, len(s.side), s.side[i], s.side[p])
		}
	}
}

// noteInsert records which tier grew since before was snapshotted.
func (r *tierReach) noteInsert(s *Scheduler, before [3]int) {
	for i, n := range tierSizes(s) {
		if n > before[i] {
			r.inserts[i]++
		}
	}
}

// collect folds in a finished scheduler's seam counters.
func (r *tierReach) collect(s *Scheduler) { r.add(tierReach{tierCounts: s.tiers}) }

func (r *tierReach) add(o tierReach) {
	r.refillRing += o.refillRing
	r.refillFar += o.refillFar
	r.migrated += o.migrated
	r.sorted = max(r.sorted, o.sorted)
	r.sidePops += o.sidePops
	r.timers.lazy += o.timers.lazy
	r.timers.fallback += o.timers.fallback
	r.timers.movedKept += o.timers.movedKept
	r.peak = max(r.peak, o.peak)
	r.seam[0] += o.seam[0]
	r.seam[1] += o.seam[1]
	for i := range r.inserts {
		r.inserts[i] += o.inserts[i]
		r.compacted[i] += o.compacted[i]
	}
}

// requireSeams fails unless every tier took inserts, refill drew its bucket
// from both sources, and far records migrated into a shifted window.
func (r *tierReach) requireSeams(t *testing.T) {
	t.Helper()
	for i, name := range [3]string{"cur", "ring", "far"} {
		if r.inserts[i] == 0 {
			t.Errorf("no record was ever inserted into %s", name)
		}
	}
	if r.refillRing == 0 || r.refillFar == 0 {
		t.Errorf("refill sources not both reached: ring %d, far %d", r.refillRing, r.refillFar)
	}
	if r.migrated == 0 {
		t.Error("no far record ever migrated into the ring window")
	}
}

// requireAll is requireSeams plus compaction having swept cancelled records
// out of each tier.
func (r *tierReach) requireAll(t *testing.T) {
	t.Helper()
	r.requireSeams(t)
	for i, name := range [3]string{"cur", "ring", "far"} {
		if r.compacted[i] == 0 {
			t.Errorf("compaction never swept a cancelled record out of %s", name)
		}
	}
}

// requireDrained fails unless s holds no pending record and has leaked
// nothing: every park record and every slot on its free chain, every slot
// cleanly freed.
func requireDrained(t *testing.T, s *Scheduler) {
	t.Helper()
	if s.live != 0 || s.pending() != 0 || s.stale != 0 {
		t.Fatalf("not drained: live %d, pending records %d, stale %d", s.live, s.pending(), s.stale)
	}
	if s.occ != [len(s.occ)]uint64{} || s.ring != [ringSize]int32{} {
		t.Fatal("occupancy bits or chain heads set on an empty ring")
	}
	freeParked := int32(0)
	for n := s.parkFree; n != 0 && freeParked <= s.parkN; n = s.parked(n).next {
		freeParked++
	}
	if freeParked != s.parkN {
		t.Fatalf("%d of %d park records on the free chain", freeParked, s.parkN)
	}
	freeSlots := int32(0)
	for n := s.slotFree; n != 0 && freeSlots <= s.slotN; n = s.slotAt(n - 1).next {
		freeSlots++
	}
	if freeSlots != s.slotN {
		t.Fatalf("%d of %d slots on the free chain", freeSlots, s.slotN)
	}
	for i := int32(0); i < s.slotN; i++ {
		if c := s.slotAt(i); c.state != slotFree || c.call != nil || c.arg != nil {
			t.Fatalf("slot %d not cleanly freed: %+v", i, *c)
		}
	}
}

// recorder returns a callback factory that appends a label to *got.
func recorder(got *[]string) func(string) func() {
	return func(label string) func() { return func() { *got = append(*got, label) } }
}

func requireOrder(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestScheduleBelowCurrentBucket: RunUntil's last peek activates the next
// event's bucket even though the clock stops short of it. Events scheduled at
// the clock afterwards carry buckets below the current one; they belong in
// cur and must fire first.
func TestScheduleBelowCurrentBucket(t *testing.T) {
	s := New()
	var got []string
	rec := recorder(&got)
	s.Schedule(5*testBucket, rec("x"))
	if n := s.RunUntil(2 * testBucket); n != 0 || s.Now() != 2*testBucket {
		t.Fatalf("RunUntil ran %d events, Now %v", n, s.Now())
	}
	if s.curB != 5 || tierSizes(s)[0] != 1 {
		t.Fatalf("peek should have activated bucket 5: curB %d, %d records in cur", s.curB, tierSizes(s)[0])
	}
	s.Schedule(3*testBucket, rec("z")) // bucket 3 < curB
	s.Schedule(s.Now(), rec("y"))      // bucket 2 < curB
	s.Schedule(5*testBucket+1, rec("x2"))
	// y and z order before the run's last and extend it; x2 orders after x
	// and goes to side.
	if len(s.cur) != 3 || len(s.side) != 1 || s.ringN != 0 {
		t.Fatalf("records at or below the current bucket must go to cur: run %d, side %d, ring %d; want 3, 1, 0", len(s.cur), len(s.side), s.ringN)
	}
	s.Schedule(6*testBucket, rec("w"))
	if s.ringN != 1 {
		t.Fatalf("record above the current bucket should be parked: ring %d", s.ringN)
	}
	s.Run()
	requireOrder(t, got, "y", "z", "x", "x2", "w")
	requireDrained(t, s)
}

// TestIdleGapLongerThanRing walks the bitmap scan through its corners: a next
// bucket whose ring index wraps past word 0, a bucket at the very end of the
// window (the scan returns to its starting word), and an idle stretch longer
// than the whole ring, which only far can bridge.
func TestIdleGapLongerThanRing(t *testing.T) {
	s := New()
	var got []string
	rec := recorder(&got)
	const start = ringSize - 3 // current bucket's ring index sits in the last word
	s.Schedule(start*testBucket, rec("a"))
	s.Step()
	if s.curB != start {
		t.Fatalf("curB = %d, want %d", s.curB, start)
	}
	s.Schedule((start+5)*testBucket, rec("b"))              // ring index 2: scan crosses into word 0
	s.Schedule((start+5+ringSize-1)*testBucket+7, rec("c")) // far now; the window's last bucket once b is current
	gap := units.Time(start+5+ringSize-1+3*ringSize) * testBucket
	s.Schedule(gap, rec("d"))             // more than a whole ring after c
	s.Schedule(gap+testBucket, rec("e1")) // far until d's refill migrates it
	if s.ringN != 1 || len(s.far) != 3 {
		t.Fatalf("setup: ring %d, far %d; want 1, 3", s.ringN, len(s.far))
	}
	s.Step() // b: c migrates into the last bucket of the window
	if s.ringN != 1 || s.tiers.migrated != 1 {
		t.Fatalf("after b: ring %d, migrated %d; want 1, 1", s.ringN, s.tiers.migrated)
	}
	if idx, startIdx := (s.curB+ringSize-1)&ringMask, (s.curB+1)&ringMask; idx>>6 != startIdx>>6 || idx >= startIdx {
		t.Fatalf("c's index %d should sit below the scan start %d in the same word", idx, startIdx)
	}
	s.Step() // c, found after a full lap of the bitmap
	s.Step() // d, from far across the gap
	if s.tiers.refillRing != 3 || s.tiers.refillFar != 1 {
		t.Fatalf("refills: ring %d, far %d; want 3 (a, b, c) and 1 (d)", s.tiers.refillRing, s.tiers.refillFar)
	}
	s.Run()
	requireOrder(t, got, "a", "b", "c", "d", "e1")
	requireDrained(t, s)
}

// TestFarRecordOnWindowEdge: at refill, a far record whose bucket is the new
// window's last migrates into the ring, and one in the first bucket outside
// stays in far until the next refill shifts the window over it.
func TestFarRecordOnWindowEdge(t *testing.T) {
	s := New()
	var got []string
	rec := recorder(&got)
	s.Schedule(10*testBucket, rec("r"))
	s.Schedule((ringSize+9)*testBucket+3, rec("last"))   // bucket 10 + ringSize - 1
	s.Schedule((ringSize+9)*testBucket+1, rec("last0"))  // same bucket, earlier instant
	s.Schedule((ringSize+10)*testBucket, rec("outside")) // bucket 10 + ringSize
	if s.ringN != 1 || len(s.far) != 3 {
		t.Fatalf("setup: ring %d, far %d; want 1, 3", s.ringN, len(s.far))
	}
	s.Step()
	if s.curB != 10 || s.ringN != 2 || len(s.far) != 1 || s.tiers.migrated != 2 {
		t.Fatalf("after refill at bucket 10: curB %d, ring %d, far %d, migrated %d; want 10, 2, 1, 2",
			s.curB, s.ringN, len(s.far), s.tiers.migrated)
	}
	s.Step()
	if s.tiers.refillRing != 2 || s.tiers.refillFar != 0 {
		t.Fatalf("the migrated bucket should refill from the ring: %+v", s.tiers)
	}
	if len(s.far) != 0 || s.tiers.migrated != 3 {
		t.Fatalf("the shifted window should have taken the outside record: far %d, %+v", len(s.far), s.tiers)
	}
	s.Run()
	requireOrder(t, got, "r", "last0", "last", "outside")
	requireDrained(t, s)
}

// TestRunBeforeIntoParkedBucket: the horizon falls inside a bucket that is
// still parked in the ring, and the earliest record there is cancelled.
// RunBefore must activate the bucket to look, discard the dead record if it
// lies before the horizon, keep it if it lies after, and stop at the live one.
func TestRunBeforeIntoParkedBucket(t *testing.T) {
	for _, deadAt := range []units.Time{5*testBucket + 10, 5*testBucket + 18} {
		s := New()
		var got []string
		rec := recorder(&got)
		dead := s.Schedule(deadAt, rec("dead"))
		s.Schedule(5*testBucket+20, rec("live"))
		s.Cancel(dead)
		if s.ringN != 2 || tierSizes(s)[0] != 0 {
			t.Fatalf("setup: both records should be parked: ring %d, cur %d", s.ringN, tierSizes(s)[0])
		}
		until := 5*testBucket + 15
		if n := s.RunBefore(until); n != 0 {
			t.Fatalf("dead at %v: RunBefore executed %d events, want 0", deadAt, n)
		}
		stale := 0
		if deadAt > until {
			stale = 1
		}
		if s.Now() != until || s.stale != stale || s.pending() != 1+stale || s.live != 1 || s.curB != 5 {
			t.Fatalf("dead at %v: Now %v, stale %d, pending %d, live %d, curB %d", deadAt, s.Now(), s.stale, s.pending(), s.live, s.curB)
		}
		if n := s.RunBefore(5*testBucket + 25); n != 1 {
			t.Fatalf("dead at %v: second RunBefore executed %d events, want 1", deadAt, n)
		}
		requireOrder(t, got, "live")
		requireDrained(t, s)
	}
}

// TestCompactionAcrossTiers triggers one compaction while cur, ring and far
// all hold cancelled records, and checks each tier was swept and every
// survivor still fires in order.
func TestCompactionAcrossTiers(t *testing.T) {
	s := New()
	var got []units.Time
	var doomed []Event
	var want []units.Time
	// Bucket 0 is current, so the first base files under cur; the ring and far
	// records sit three to a bucket, so chains are unlinked at the head, in
	// the middle and at the tail.
	for i := 0; i < 30; i++ {
		for tier, base := range [3]units.Time{0, 7 * testBucket, 3 * testWindow} {
			at := base + units.Time(i/3)*testBucket*units.Time(min(tier, 1)) + units.Time(i)
			e := s.Schedule(at, func() { got = append(got, at) })
			if i%4 != 3 {
				doomed = append(doomed, e)
			} else {
				want = append(want, at)
			}
		}
	}
	slices.Sort(want)
	if sz := tierSizes(s); sz != [3]int{30, 30, 30} {
		t.Fatalf("setup: tier sizes %v, want 30 each", sz)
	}
	for _, e := range doomed {
		s.Cancel(e)
	}
	// 69 cancels of 90 records: the 65th is the first with stale > 64, and
	// 2*65 > 90 fires the sweep; the last four are marked after it.
	if s.tiers.compacted != [3]uint64{22, 22, 21} {
		t.Fatalf("compacted per tier = %v, want [22 22 21]", s.tiers.compacted)
	}
	if s.stale != 4 || s.pending() != 25 || s.live != 21 {
		t.Fatalf("after compaction: stale %d, pending %d, live %d; want 4, 25, 21", s.stale, s.pending(), s.live)
	}
	s.Run()
	if !slices.Equal(got, want) {
		t.Fatalf("survivors fired at %v, want %v", got, want)
	}
	requireDrained(t, s)
}

// TestHorizonLeavesHalfDrainedBucket: a horizon in the middle of a bucket
// leaves cur partly drained; events scheduled in between land around it, and
// RunUntil resumes in order.
func TestHorizonLeavesHalfDrainedBucket(t *testing.T) {
	s := New()
	var got []string
	rec := recorder(&got)
	at := 9 * testBucket
	for _, l := range []string{"a", "b", "c", "d", "e"} {
		s.Schedule(at, rec(l))
		at += 3
	}
	s.Schedule(12*testBucket, rec("later"))
	if n := s.RunUntil(9*testBucket + 3); n != 2 || s.Now() != 9*testBucket+3 {
		t.Fatalf("ran %d events to %v, want 2 to %v", n, s.Now(), 9*testBucket+3)
	}
	if tierSizes(s)[0] != 3 || s.ringN != 1 {
		t.Fatalf("half-drained bucket: cur %d, ring %d; want 3, 1", tierSizes(s)[0], s.ringN)
	}
	s.Schedule(s.Now(), rec("now"))          // ahead of c in the same bucket
	s.Schedule(9*testBucket+7, rec("c2"))    // between c and d
	s.Schedule(10*testBucket, rec("next"))   // next bucket: parked
	s.Schedule(2*testWindow, rec("horizon")) // far, beyond the resume's horizon
	if n := s.RunUntil(testWindow); n != 7 || s.Now() != testWindow {
		t.Fatalf("resume ran %d events to %v, want 7 to %v", n, s.Now(), testWindow)
	}
	requireOrder(t, got, "a", "b", "now", "c", "c2", "d", "e", "next", "later")
	s.Run()
	requireOrder(t, got, "a", "b", "now", "c", "c2", "d", "e", "next", "later", "horizon")
	requireDrained(t, s)
}
