package eventsim

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"bfc/internal/units"
)

// The arena contract: an engine record, once allocated, never moves and is
// never copied. Slot, pedigree and park records live in fixed pages, so the
// bytes an arena costs are its pages, and a pointer to a record stays valid
// for as long as the record is in use.

// holdChain schedules, on s, a chain of n dispatches 1 ps apart, each of
// which leaves one event pending 1 us out — in the ring, under a pedigree of
// its own — and runs the chain. It returns with n events pending.
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
	held := s.Len()
	s.ScheduleCall(s.Now(), step, nil)
	s.RunUntil(s.Now() + units.Microsecond - 1)
	if s.Len() != held+n {
		t.Fatalf("%d events pending after the chain, want %d", s.Len(), held+n)
	}
}

// TestArenaGrowthBound prices the arenas: holding 50 000 events pending under
// distinct dispatches — one slot, one pedigree and one park record each —
// allocates the pages those records fill and the scheduler itself, within
// 30 % for the rest (the heap cur, free-lists, the park page list). Arenas
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
		pages(s.pedN, pedShift)*unsafe.Sizeof(*s.peds[0]) +
		pages(s.parkN, parkShift)*unsafe.Sizeof(*s.park[0])
	bound := paged*13/10 + unsafe.Sizeof(*s)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d slot, %d pedigree and %d park records in %d KB of pages; allocated %d KB, bound %d KB",
		s.slotN, s.pedN, s.parkN, paged>>10, got>>10, bound>>10)
	if s.slotN < n || s.pedN < n {
		t.Fatalf("%d slot and %d pedigree records for %d pending events from distinct dispatches", s.slotN, s.pedN, n)
	}
	if got > uint64(bound) {
		t.Errorf("holding %d events pending allocated %d KB, want at most %d KB (1.3 x the %d KB of pages, plus the scheduler)",
			n, got>>10, bound>>10, paged>>10)
	}
}

// TestRecordsNeverMove takes pointers to a pending event's slot and pedigree
// records, fills ten more pages of each arena, and requires both pointers to
// still address the same, unchanged records.
func TestRecordsNeverMove(t *testing.T) {
	s := New()
	var e Event // pending past the chains below, under a pedigree a dispatch interned
	s.Schedule(0, func() { e = s.Schedule(units.Millisecond, func() {}) })
	s.Step()
	if !s.Pending(e) {
		t.Fatal("the held event is not pending")
	}
	sp := s.slotAt(e.slot)
	pp := s.pedAt(sp.ped)
	slotWas, pedWas := *sp, *pp

	holdChain(t, s, 10*slotPage)
	if s.slotN <= 10*slotPage || s.pedN <= 10*pedPage {
		t.Fatalf("arenas hold %d slot and %d pedigree records, want more than ten pages of each", s.slotN, s.pedN)
	}
	if s.slotAt(e.slot) != sp || s.pedAt(slotWas.ped) != pp {
		t.Fatal("a record moved when its arena grew")
	}
	if sp.gen != slotWas.gen || sp.state != slotWas.state || sp.ped != slotWas.ped || sp.kid != slotWas.kid || sp.tag != slotWas.tag ||
		pp.chain != pedWas.chain || pp.tags != pedWas.tags || pp.kids != pedWas.kids {
		t.Fatalf("records changed under a growing arena: slot %+v -> %+v, pedigree %+v -> %+v", slotWas, *sp, pedWas, *pp)
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
		{"pedigree table full", func(s *Scheduler) { s.pedN = pedTable * pedPage }},
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
