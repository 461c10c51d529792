package eventsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"bfc/internal/units"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("execution order = %v, want %v", got, want)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v, want 30", s.Now())
	}
	if s.Executed != 3 {
		t.Fatalf("Executed = %d, want 3", s.Executed)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: position %d has %d", i, v)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.Schedule(5, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	s.Schedule(5, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	if !s.Pending(e) {
		t.Fatal("scheduled event should be pending")
	}
	s.Cancel(e)
	s.Cancel(e)       // idempotent
	s.Cancel(Event{}) // zero handle is a no-op
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Pending(e) {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var e2 Event
	s.Schedule(10, func() { s.Cancel(e2) })
	e2 = s.Schedule(20, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled by earlier event still fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []units.Time
	for _, at := range []units.Time{10, 20, 30, 40} {
		at := at
		s.Schedule(at, func() { got = append(got, at) })
	}
	n := s.RunUntil(25)
	if n != 2 || len(got) != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", n)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25 (clock advances to horizon)", s.Now())
	}
	n = s.RunUntil(100)
	if n != 2 {
		t.Fatalf("second RunUntil executed %d, want 2", n)
	}
	if s.Now() != 100 {
		t.Fatalf("Now = %v, want 100", s.Now())
	}
}

func TestStep(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, func() { count++ })
	e := s.Schedule(2, func() { count++ })
	s.Cancel(e)
	s.Schedule(3, func() { count++ })
	if !s.Step() || count != 1 {
		t.Fatalf("first Step: count=%d", count)
	}
	if !s.Step() || count != 2 {
		t.Fatalf("second Step skips cancelled: count=%d", count)
	}
	if s.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var got []units.Time
	s.Schedule(10, func() {
		got = append(got, s.Now())
		s.Schedule(s.Now()+5, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestTimer(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func(a any) { *a.(*int)++ }, &fired)
	tm.Reset(10)
	tm.Reset(20) // re-arm replaces the pending firing
	if tm.ev == (Event{}) {
		t.Fatal("timer should be pending")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("fired at %v, want 20", s.Now())
	}
	tm.Stop() // stop on idle timer is a no-op
	if tm.ev != (Event{}) {
		t.Fatal("stopped timer should not be pending")
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := 0
	tm := NewTimer(s, func(any) { fired++ }, nil)
	tm.Reset(10)
	tm.Stop()
	s.Run()
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []units.Time
	var tk Ticker
	tk.Start(s, 10, 0, func(any) { ticks = append(ticks, s.Now()) }, nil)
	s.RunUntil(45)
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4", len(ticks))
	}
	for i, at := range ticks {
		if at != units.Time(10*(i+1)) {
			t.Fatalf("tick %d at %v, want %v", i, at, units.Time(10*(i+1)))
		}
	}
}

// ownerOf reads a key's owner.
func ownerOf(k Key) int32 { return int32(uint32(k.ord)) - 1 }

// TestTickersOrderByOwner: tickers of one period started during set-up, in
// any order, tick at each instant in the order of their targets, each tick
// its target's own schedule — the order every partition of a fabric
// computes alike, whichever devices a shard builds.
func TestTickersOrderByOwner(t *testing.T) {
	const period = 7
	s := New()
	var got []int32
	var tks [3]Ticker
	for i, target := range []int32{9, 2, 5} {
		tks[i].Start(s, period, target, func(any) {
			k := s.CurrentKey()
			if ownerOf(k) != target || k.gen() != 0 {
				t.Errorf("tick of %d at %v keyed %+v: owner %d, generation %d", target, s.Now(), k, ownerOf(k), k.gen())
			}
			got = append(got, target)
		}, nil)
	}
	s.RunUntil(3 * period)
	if want := []int32{2, 5, 9, 2, 5, 9, 2, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("ticks ran for %v, want %v", got, want)
	}
}

// TestZeroDelayChildAfterPending: a zero-delay child of a lower owner's event
// fires after the higher owners' events already pending at that instant —
// the generation keeps Schedule's contract — and a child of the child after
// every child.
func TestZeroDelayChildAfterPending(t *testing.T) {
	s := New()
	var got []string
	s.ScheduleCallTo(10, 5, func(any) { got = append(got, "b") }, nil)
	s.ScheduleCallTo(10, 2, func(any) {
		got = append(got, "a")
		s.Schedule(10, func() {
			got = append(got, "a'")
			s.Schedule(10, func() { got = append(got, "a''") })
		})
	}, nil)
	s.ScheduleCallTo(10, 8, func(any) { s.Schedule(10, func() { got = append(got, "c'") }) }, nil)
	s.Run()
	requireOrder(t, got, "a", "b", "a'", "c'", "a''")
}

// TestActNamesTheOwner: an action opened at the current instant runs under
// the key it was given, and what it schedules counts on its owner: a
// zero-delay child follows the action's generation, a later one is
// generation 0. The next dispatch closes the action.
func TestActNamesTheOwner(t *testing.T) {
	s := New()
	s.RunUntil(20)
	k := Key{At: 20, Seq: 4}
	s.Act(k, 6)
	if s.CurrentKey() != k {
		t.Fatalf("CurrentKey = %+v inside the action, want %+v", s.CurrentKey(), k)
	}
	now := s.ChildKey(20, 3)
	later := s.ChildKey(30, 3)
	if ownerOf(now) != 6 || now.gen() != 1 || now.Seq != 0 || ownerOf(later) != 6 || later.gen() != 0 || later.Seq != 1 {
		t.Fatalf("action's children keyed %+v and %+v, want owner 6 at generations 1 and 0, sequence 0 and 1", now, later)
	}
	var owner int32
	s.Schedule(25, func() { owner = ownerOf(s.ChildKey(40, 1)) })
	s.Run()
	if owner != 6 {
		t.Fatalf("the action's event ran for %d, want 6", owner)
	}
	assertPanics(t, func() { s.Act(Key{At: s.Now() + 1}, 6) })
}

// TestOrderIgnoresSchedulingInterleaving: two schedulers given the same
// owners' events, each owner's in the same order but the owners interleaved
// differently — as two partitions of a fabric set up their devices — fire
// them in one order.
func TestOrderIgnoresSchedulingInterleaving(t *testing.T) {
	run := func(owners []int32) []string {
		s := New()
		var got []string
		n := map[int32]int{}
		for _, o := range owners {
			label := fmt.Sprintf("%d.%d", o, n[o])
			n[o]++
			at := units.Time(10 * (n[o] % 2))
			s.ScheduleCallTo(at, o, func(any) {
				got = append(got, label)
				s.ScheduleCallTo(s.Now()+1, o+1, func(any) { got = append(got, label+"+") }, nil)
			}, nil)
		}
		s.Run()
		return got
	}
	a := run([]int32{1, 1, 4, 4, 2, 2, 1})
	b := run([]int32{4, 2, 1, 2, 1, 4, 1})
	if !slices.Equal(a, b) {
		t.Fatalf("fired %v under one interleaving, %v under another", a, b)
	}
}

func TestTickerPanics(t *testing.T) {
	s := New()
	var tk Ticker
	assertPanics(t, func() { tk.Start(s, 0, 0, func(any) {}, nil) })
	assertPanics(t, func() { tk.Start(s, 10, 0, nil, nil) })
	assertPanics(t, func() { NewTimer(s, nil, nil) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

// Property: regardless of insertion order, events execute in nondecreasing
// time order and every non-cancelled event executes exactly once.
func TestExecutionOrderProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		s := New()
		var fired []units.Time
		times := make([]units.Time, count)
		for i := 0; i < count; i++ {
			at := units.Time(rng.Int63n(1000))
			times[i] = at
			s.Schedule(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != count {
			return false
		}
		sorted := append([]units.Time(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
