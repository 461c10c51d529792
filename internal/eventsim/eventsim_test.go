package eventsim

import (
	"math/rand"
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
	NewTickerTagged(s, 10, 0, func() { ticks = append(ticks, s.Now()) })
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

// TestTickKeyIsATickersKey: a real untagged Ticker started during setup,
// whose callback schedules nothing, dispatches every tick under TickKey — the
// key the sim coordinator samples under without running one. The first ticks'
// chains reach back into setup (instant 0, then SetupTime); past ChainDepth
// ticks every entry is a real tick instant.
func TestTickKeyIsATickersKey(t *testing.T) {
	const period = 7
	s := New()
	var ticks []units.Time
	NewTickerTagged(s, period, 0, func() {
		ticks = append(ticks, s.Now())
		if got, want := s.CurrentKey(), TickKey(s.Now(), period); got != want {
			t.Errorf("tick at %v: CurrentKey = %+v, TickKey = %+v", s.Now(), got, want)
		}
	})
	s.RunUntil((ChainDepth + 2) * period)
	if len(ticks) != ChainDepth+2 {
		t.Fatalf("got %d ticks, want %d", len(ticks), ChainDepth+2)
	}
	if k := TickKey(period, period); k.Chain[0] != 0 || k.Chain[1] != SetupTime {
		t.Errorf("first tick's chain %v does not reach back into setup", k.Chain)
	}
}

// TestSetupKeyIsASetupEventsKey: an untagged event scheduled during setup
// dispatches under SetupKey of its instant, whichever entry point scheduled
// it.
func TestSetupKeyIsASetupEventsKey(t *testing.T) {
	s := New()
	fired := 0
	check := func() {
		fired++
		if got, want := s.CurrentKey(), SetupKey(s.Now()); got != want {
			t.Errorf("setup event at %v: CurrentKey = %+v, SetupKey = %+v", s.Now(), got, want)
		}
	}
	for _, at := range []units.Time{0, 3, 3, 5 * testWindow} {
		s.Schedule(at, check)
		s.ScheduleCall(at, func(any) { check() }, nil)
	}
	s.Run()
	if fired != 8 {
		t.Fatalf("fired %d setup events, want 8", fired)
	}
}

// TestSetupKeyTickKeyTie pins the tie rule the sim coordinator relies on when
// a scenario event and a sampling tick share an instant b: SetupKey(b) equals
// TickKey(b, Δ) at the first tick only, and orders strictly first at every
// later tick.
func TestSetupKeyTickKeyTie(t *testing.T) {
	for _, delta := range []units.Time{1, 7, units.Microsecond} {
		if SetupKey(delta) != TickKey(delta, delta) {
			t.Errorf("Δ=%v: SetupKey(Δ) = %+v, TickKey(Δ, Δ) = %+v; want equal", delta, SetupKey(delta), TickKey(delta, delta))
		}
		for n := units.Time(2); n <= ChainDepth+2; n++ {
			b := n * delta
			if setup, tick := SetupKey(b), TickKey(b, delta); !setup.Less(tick) || tick.Less(setup) {
				t.Errorf("Δ=%v b=%d·Δ: SetupKey does not order strictly before TickKey", delta, n)
			}
		}
	}
}

func TestTickerPanics(t *testing.T) {
	s := New()
	assertPanics(t, func() { NewTickerTagged(s, 0, 0, func() {}) })
	assertPanics(t, func() { NewTickerTagged(s, 10, 0, nil) })
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
