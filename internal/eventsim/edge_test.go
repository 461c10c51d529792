package eventsim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"bfc/internal/units"
)

// TestCancelThenRescheduleSameTime covers the timer pattern that motivated
// lazy deletion: cancel a pending event and immediately schedule a
// replacement at the very same timestamp. The replacement must fire exactly
// once, in FIFO position relative to other same-time events, and the stale
// handle must not be able to cancel it even though it may reuse the slot.
func TestCancelThenRescheduleSameTime(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(10, func() { got = append(got, "a") })
	e := s.Schedule(10, func() { got = append(got, "dead") })
	s.Cancel(e)
	s.Schedule(10, func() { got = append(got, "b") })
	s.Cancel(e) // stale: must not touch the replacement, wherever it landed
	if live(s) != 2 {
		t.Fatalf("live = %d, want 2", live(s))
	}
	s.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("fired %v, want [a b]", got)
	}
}

// TestStaleHandleAfterFire verifies that a handle kept past its event's
// firing cannot cancel a later event that recycles the same slot.
func TestStaleHandleAfterFire(t *testing.T) {
	s := New()
	fired := 0
	e1 := s.Schedule(1, func() { fired++ })
	s.Run()
	e2 := s.Schedule(2, func() { fired++ }) // most likely reuses e1's slot
	s.Cancel(e1)                            // stale — must be a no-op
	if !s.Pending(e2) {
		t.Fatal("stale Cancel hit a recycled slot")
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
}

// TestRunUntilClockAdvance pins the clock semantics of RunUntil: the clock
// advances to the horizon when the queue empties early or holds only future
// events, never runs backwards, and Run (no horizon) leaves it at the last
// executed event.
func TestRunUntilClockAdvance(t *testing.T) {
	s := New()
	if s.RunUntil(50) != 0 || s.Now() != 50 {
		t.Fatalf("empty queue: Now = %v, want 50", s.Now())
	}
	s.Schedule(200, func() {})
	if s.RunUntil(100) != 0 || s.Now() != 100 {
		t.Fatalf("future-only queue: Now = %v, want 100", s.Now())
	}
	if s.RunUntil(60) != 0 || s.Now() != 100 {
		t.Fatalf("clock ran backwards: Now = %v, want 100", s.Now())
	}
	s.Run()
	if s.Now() != 200 {
		t.Fatalf("Run: Now = %v, want last event time 200", s.Now())
	}
}

// TestCompaction drives enough lazy cancellations to force compaction sweeps
// and checks that survivors still fire in exact order and slots are reused
// rather than leaked.
func TestCompaction(t *testing.T) {
	s := New()
	var fired []int
	var cancelled []Event
	for i := 0; i < 1000; i++ {
		i := i
		e := s.Schedule(units.Time(i), func() { fired = append(fired, i) })
		if i%2 == 1 {
			cancelled = append(cancelled, e)
		}
	}
	for _, e := range cancelled {
		s.Cancel(e)
	}
	if live(s) != 500 {
		t.Fatalf("live = %d, want 500", live(s))
	}
	s.Run()
	if len(fired) != 500 {
		t.Fatalf("fired %d, want 500", len(fired))
	}
	for i, v := range fired {
		if v != 2*i {
			t.Fatalf("position %d fired %d, want %d", i, v, 2*i)
		}
	}
}

// TestSlotReuse checks the free-list: a long schedule/fire sequence with few
// concurrent events must not grow the slot table.
func TestSlotReuse(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 10000; i++ {
		s.Schedule(units.Time(i), fn)
		s.Step()
	}
	if s.slotN > 4 {
		t.Fatalf("slot arena grew to %d records for a 1-deep workload", s.slotN)
	}
}

// TestRecordLayouts is a tripwire on the shapes the hot path's speed hangs
// on. Each was found by measurement, none is visible in a diff that breaks it,
// and the compiler's register rules are what make them cliffs: a struct of
// more than four fields, or one returned by value, travels through the stack
// in narrow stores and 16-byte reloads the store buffer cannot forward.
func TestRecordLayouts(t *testing.T) {
	if e := reflect.TypeOf(entry{}); e.NumField() > 4 || e.Size() != 32 {
		t.Errorf("entry has %d fields in %d bytes, want at most 4 in 32: a fifth field keeps it out of registers in every sift (PR 17: BenchmarkTimerReset 24 -> 46 ns); see parked", e.NumField(), e.Size())
	}
	if n := unsafe.Sizeof(parked{}); n != 32 {
		t.Errorf("parked is %d bytes, want 32: two records per cache line, 512 per 16 KB park page", n)
	}
	if n := unsafe.Sizeof(Key{}); n > 24 {
		t.Errorf("Key is %d bytes, want at most 24: instant, generation and owner, sequence number; every boundary delivery and merged record carries one", n)
	}
	if n := unsafe.Sizeof(slot{}); n > 40 {
		t.Errorf("slot is %d bytes, want at most 40: one callback form (call + arg), a target and the free chain's link; the arena is the cache miss every pop pays", n)
	}
	if n := unsafe.Sizeof([slotPage]slot{}); n != 40<<10 {
		t.Errorf("a slot page is %d bytes, want 40 KB: 1024 records of 40 bytes, five runtime pages with no tail left over; TestArenaGrowthBound prices the arena by its pages", n)
	}
	pop := reflect.TypeOf((*Scheduler).popReady)
	for i := 0; i < pop.NumOut(); i++ {
		if k := pop.Out(i).Kind(); k == reflect.Struct || k == reflect.Array {
			t.Errorf("popReady result %d is a %v: results must ride in registers (PR 22: returning the event as a by-value record took BenchmarkScheduleFire 31 -> 60 ns)", i, pop.Out(i))
		}
	}
}

// TestCallbackObservesEngineState pins what a running callback sees of the
// engine, i.e. which side of the call each step of fire sits on: the slot is
// freed before it (the callback's first Schedule gets it back under a new
// generation, the event's own handle is already stale) and the event is
// counted after it. The series sampler reads Executed from inside its tick,
// and a fire that counted first was caught only by the sharded engine
// diverging from the serial one, seconds later and without a hint.
func TestCallbackObservesEngineState(t *testing.T) {
	runs := []struct {
		name string
		run  func(*Scheduler) uint64
	}{
		{"Step", func(s *Scheduler) uint64 {
			if s.Step() {
				return 1
			}
			return 0
		}},
		{"RunUntil", func(s *Scheduler) uint64 { return s.RunUntil(40) }},
		{"RunBefore", func(s *Scheduler) uint64 { return s.RunBefore(41) }},
	}
	for _, r := range runs {
		for _, form := range []string{"func()", "func(any)"} {
			t.Run(r.name+"/"+form, func(t *testing.T) {
				s := New()
				var own, reused Event
				var want Key
				ran := false
				body := func() {
					ran = true
					if s.Executed != 1 {
						t.Errorf("Executed = %d inside the second event, want 1: the running event is counted after it returns", s.Executed)
					}
					if live(s) != 1 {
						t.Errorf("live = %d inside the callback, want 1 (the later event only)", live(s))
					}
					if s.Now() != 40 {
						t.Errorf("Now = %v inside the callback, want 40", s.Now())
					}
					if s.Pending(own) {
						t.Error("the running event's own handle is still pending")
					}
					if got := s.CurrentKey(); got != want {
						t.Errorf("CurrentKey = %+v, want %+v", got, want)
					}
					reused = s.Schedule(45, func() {})
					if reused.slot != own.slot || reused.gen != own.gen+1 {
						t.Errorf("first Schedule of the callback got %+v, want the just-freed slot of %+v under the next generation", reused, own)
					}
					s.Cancel(own) // stale: must not reach the slot's new occupant
					if !s.Pending(reused) || live(s) != 2 {
						t.Errorf("stale Cancel touched the reused slot: Pending %v, live %d", s.Pending(reused), live(s))
					}
				}
				s.ScheduleCallTo(10, 7, func(any) {
					// The key the fuzz model derives for a child scheduled
					// now: owner 7's second, after this event's own.
					m := &queueModel{s: s, now: s.Now(), key: s.CurrentKey(), owner: 7, seqs: map[int32]uint64{7: 1}}
					if form == "func()" {
						want = m.childKey(40, 7)
						own = s.Schedule(40, body)
					} else {
						want = m.childKey(40, 3)
						own = s.ScheduleCallTo(40, 3, func(any) { body() }, nil)
					}
				}, nil)
				s.Schedule(50, func() {})
				s.Step()
				if n := r.run(s); n != 1 || !ran {
					t.Fatalf("executed %d events (callback ran: %v), want 1", n, ran)
				}
				if s.Executed != 2 || live(s) != 2 {
					t.Errorf("Executed %d, live %d after the call; want 2, 2", s.Executed, live(s))
				}
				s.Run()
				requireDrained(t, s)
			})
		}
	}
}

// Reference implementation: the seed engine's container/heap scheduler, kept
// here as the ordering oracle for the property test below.
type refEvent struct {
	at        units.Time
	seq       uint64
	id        int
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *refHeap) popMin() *refEvent { return heap.Pop(h).(*refEvent) }

// TestPopOrderMatchesReferenceHeap is the property test required by the
// engine rewrite: under random interleavings of schedules and cancels, all
// from outside any dispatch and so all the Coordinator's, the
// three-tier lazy-deletion queue must pop events in exactly the order the
// container/heap reference does. Delays mix the original few-picosecond draws
// (same-instant collisions, decided by seq) with tierDelays, so records land
// in cur, ring and far and cross between them; some seeds cancel more than
// they schedule so that compaction sweeps all three tiers. The reach is
// asserted at the end, not assumed.
func TestPopOrderMatchesReferenceHeap(t *testing.T) {
	var reach tierReach
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := &refHeap{}
		heap.Init(ref)

		var got []int
		type pending struct {
			ev  Event
			ref *refEvent
		}
		var open []pending
		nextID := 0

		ops := 400 + rng.Intn(600)
		cancelHeavy := seed%4 == 3
		for i := 0; i < ops; i++ {
			schedule := rng.Intn(3) > 0
			if cancelHeavy && i > ops/2 {
				schedule = rng.Intn(4) == 0
			}
			switch {
			case schedule || len(open) == 0:
				id := nextID
				nextID++
				at := s.Now() + units.Time(rng.Intn(50))
				if rng.Intn(2) == 0 {
					at = s.Now() + drawTierDelay(rng) + units.Time(rng.Intn(3))
				}
				re := &refEvent{at: at, seq: uint64(i), id: id}
				heap.Push(ref, re)
				before := tierSizes(s)
				ev := s.Schedule(at, func() { got = append(got, id) })
				reach.noteInsert(s, before)
				open = append(open, pending{ev: ev, ref: re})
			default: // cancel a random still-pending event
				live := open[:0]
				for _, pe := range open {
					if s.Pending(pe.ev) {
						live = append(live, pe)
					}
				}
				open = live
				if len(open) == 0 {
					continue
				}
				k := rng.Intn(len(open))
				s.Cancel(open[k].ev)
				open[k].ref.cancelled = true
				open = append(open[:k], open[k+1:]...)
			}
			// Occasionally fire a few events so cancels interleave with pops.
			for !cancelHeavy && rng.Intn(4) == 0 && s.Step() {
			}
		}
		s.Run()

		var want []int
		for ref.Len() > 0 {
			if e := ref.popMin(); !e.cancelled {
				want = append(want, e.id)
			}
		}
		// Events only ever fire at >= the current clock, so the interleaved
		// firings form a prefix of the global (at, seq) order — the full
		// fired sequence must equal the reference heap's drain order over
		// non-cancelled events.
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d fired id %d, reference id %d", seed, i, got[i], want[i])
			}
		}
		requireDrained(t, s)
		reach.collect(s)
	}
	reach.requireAll(t)
}

// TestReserveSizesFar: arrivals filed past the ring's window before the first
// event go into far, and a scheduler that reserved room for them files them
// all without growing it.
func TestReserveSizesFar(t *testing.T) {
	const arrivals = 1000
	s := New()
	s.Reserve(arrivals)
	room := cap(s.far)
	nop := func(any) {}
	for i := range arrivals {
		s.ScheduleCallTo(units.Time(ringSize+i)<<bucketShift, int32(i%7), nop, nil)
	}
	if len(s.far) != arrivals || cap(s.far) != room || room < arrivals {
		t.Fatalf("far holds %d of %d arrivals with capacity %d, reserved %d", len(s.far), arrivals, cap(s.far), room)
	}
	s.Run()
	if s.Executed != arrivals {
		t.Fatalf("executed %d of %d arrivals", s.Executed, arrivals)
	}
}
