package eventsim

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bfc/internal/units"
)

// The arena contract: an engine record, once allocated, never moves and is
// never copied. Slot and park records live in fixed pages, so the
// bytes an arena costs are its pages, and a pointer to a record stays valid
// for as long as the record is in use.

// holdChain schedules, on s, a chain of n dispatches 1 ps apart, each of
// which leaves one event pending 1 us out — in the ring — and runs the
// chain. It returns with n events pending.
func holdChain(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	left := n
	var hold, step func(any)
	hold = func(any) {}
	step = func(any) {
		s.ScheduleCall(s.Now()+units.Microsecond, hold, nil)
		if left--; left > 0 {
			s.ScheduleCall(s.Now()+1, step, nil)
		}
	}
	held := s.live
	s.ScheduleCall(s.Now(), step, nil)
	s.RunUntil(s.Now() + units.Microsecond - 1)
	if s.live != held+n {
		t.Fatalf("%d events pending after the chain, want %d", s.live, held+n)
	}
}

// TestArenaGrowthBound prices the arenas: holding 50 000 events pending under
// distinct dispatches — one slot and one park record each — allocates the
// pages those records fill and the scheduler itself, within 30 % for the rest
// (the heap cur, the owners' counts, the park page list). Arenas
// grown by append re-copy about five times their final size and allocate
// three to four times this bound.
func TestArenaGrowthBound(t *testing.T) {
	const n = 50_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New()
	holdChain(t, s, n)
	runtime.ReadMemStats(&after)

	pages := func(records int32, shift uint) uintptr { return uintptr(records+1<<shift-1) >> shift }
	paged := pages(s.slotN, slotShift)*unsafe.Sizeof(*s.slots[0]) +
		pages(s.parkN, parkShift)*unsafe.Sizeof(*s.park[0])
	bound := paged*13/10 + unsafe.Sizeof(*s)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d slot and %d park records in %d KB of pages; allocated %d KB, bound %d KB",
		s.slotN, s.parkN, paged>>10, got>>10, bound>>10)
	if s.slotN < n {
		t.Fatalf("%d slot records for %d pending events", s.slotN, n)
	}
	if got > uint64(bound) {
		t.Errorf("holding %d events pending allocated %d KB, want at most %d KB (1.3 x the %d KB of pages, plus the scheduler)",
			n, got>>10, bound>>10, paged>>10)
	}
}

// TestRecordsNeverMove takes a pointer to a pending event's slot record,
// fills ten more pages of the arena, and requires the pointer to still
// address the same, unchanged record.
func TestRecordsNeverMove(t *testing.T) {
	s := New()
	var e Event // pending past the chains below
	s.Schedule(0, func() { e = s.ScheduleCallTo(units.Millisecond, 3, func(any) {}, nil) })
	s.Step()
	if !s.Pending(e) {
		t.Fatal("the held event is not pending")
	}
	sp := s.slotAt(e.slot)
	slotWas := *sp

	holdChain(t, s, 10*slotPage)
	if s.slotN <= 10*slotPage {
		t.Fatalf("the arena holds %d slot records, want more than ten pages", s.slotN)
	}
	if s.slotAt(e.slot) != sp {
		t.Fatal("a record moved when its arena grew")
	}
	if sp.gen != slotWas.gen || sp.state != slotWas.state || sp.target != slotWas.target || sp.next != slotWas.next {
		t.Fatalf("record changed under a growing arena: slot %+v -> %+v", slotWas, *sp)
	}
}

// TestArenaFullPanics: allocating a record past an arena's page table panics
// naming the table, instead of wrapping around onto live records.
func TestArenaFullPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		fill func(*Scheduler)
	}{
		{"slot table full", func(s *Scheduler) { s.slotN = slotTable * slotPage }},
	} {
		s := New()
		c.fill(s)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.name) {
					t.Errorf("scheduling on a full arena: panic %q, want one naming %q", msg, c.name)
				}
			}()
			s.Schedule(0, func() {})
		}()
	}
}
