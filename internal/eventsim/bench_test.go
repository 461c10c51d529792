package eventsim

import (
	"testing"

	"bfc/internal/units"
)

// The scheduler benchmarks below are the CI-gated hot-path measurements (see
// cmd/benchjson and .github/workflows/ci.yml): a >20% ns/op or allocs/op
// regression against BENCH_baseline.json fails the bench job. Steady-state
// schedule/fire must stay at zero allocs/op.

// BenchmarkScheduleFire measures the common schedule-then-fire cycle with a
// nearly empty heap (the pattern of timers and link events in a quiet
// simulation).
func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(units.Time(i), fn)
		s.Step()
	}
}

// BenchmarkScheduleFireDepth1k measures schedule/fire against a queue holding
// 1024 pending events far in the future. Every new event is the global
// minimum — which no device produces; BenchmarkScheduleFireInFlight is the
// simulator-shaped row — so since the calendar front this row times a refill
// per fire beside a deep far heap that is never touched.
func BenchmarkScheduleFireDepth1k(b *testing.B) {
	s := New()
	fn := func() {}
	const horizon = units.Time(1 << 40)
	for i := 0; i < 1024; i++ {
		s.Schedule(horizon+units.Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(units.Time(i), fn)
		s.Step()
	}
}

// BenchmarkScheduleFireInFlight is schedule/fire in the shape a loaded
// simulation gives the queue (measured on the bench's clos_incast_bfc
// configuration): 8192 flow arrivals pre-scheduled across a 100 us horizon,
// each re-arming itself a horizon ahead so the far tier stays that deep, and
// 4096 deliveries in flight, each fire scheduling one successor 5 ns, 80 ns
// or 1.08 us out in the measured 1:1:2 mix (serialisation, a short hop,
// propagation + serialisation).
func BenchmarkScheduleFireInFlight(b *testing.B) {
	const (
		arrivals = 8192
		inFlight = 4096
		horizon  = 100 * units.Microsecond
	)
	s := New()
	delays := [4]units.Time{5 * units.Nanosecond, 80 * units.Nanosecond, 1080 * units.Nanosecond, 1080 * units.Nanosecond}
	rng := uint64(1)
	var deliver, arrive func(any)
	deliver = func(any) {
		rng = rng*6364136223846793005 + 1442695040888963407
		s.ScheduleCall(s.Now()+delays[rng>>62], deliver, nil)
	}
	arrive = func(any) { s.ScheduleCall(s.Now()+horizon, arrive, nil) }
	for i := 0; i < arrivals; i++ {
		s.ScheduleCall(units.Time(i)*horizon/arrivals, arrive, nil)
	}
	for i := 0; i < inFlight; i++ {
		s.ScheduleCall(units.Time(i)*delays[3]/inFlight, deliver, nil)
	}
	for i := 0; i < 4*inFlight; i++ { // reach the steady mix before timing
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkScheduleCall measures the closure-free variant used by the packet
// delivery path: one stored func(any) plus a pointer argument.
func BenchmarkScheduleCall(b *testing.B) {
	s := New()
	var sink int
	fn := func(x any) { sink += *x.(*int) }
	arg := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleCall(units.Time(i), fn, arg)
		s.Step()
	}
}

// BenchmarkScheduleCancel measures lazy cancellation including the periodic
// compaction sweeps it triggers.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(units.Time(i)+1e9, fn)
		s.Cancel(e)
	}
}

// keySink defeats dead-code elimination of materialized keys in
// BenchmarkSchedulerKeyOverhead.
var keySink Key

// BenchmarkSchedulerKeyOverhead isolates the determinism machinery's cost at
// its three tiers, each measuring one schedule-from-dispatch plus fire so the
// causal chain actually builds:
//
//   - compact: the default path after the index-heap split — a child shares
//     its dispatch's interned pedigree record (slot + child index) and no
//     wire Key is ever built. The pre-split layout carried the expanded key
//     in every heap entry, so the compact-vs-eager-key gap is the per-event
//     tax that layout paid unconditionally.
//   - eager-key: compact plus a full wire-Key materialization (CurrentKey)
//     per dispatch — what run-level observers like the flight recorder and
//     FCT merge pay per recorded event.
//   - injected: the boundary replay path — ChildKey builds the wire key on
//     the sending side and ScheduleCallInjected re-interns it on the
//     receiving side, the per-delivery cost of a cross-shard hop.
//
// All three must stay allocation-free in steady state: pedigree and slot
// records recycle through free-lists.
func BenchmarkSchedulerKeyOverhead(b *testing.B) {
	b.Run("compact", func(b *testing.B) {
		s := New()
		n := 0
		var spawn func()
		spawn = func() {
			if n++; n < b.N {
				s.Schedule(s.Now()+1, spawn)
			}
		}
		s.Schedule(0, spawn)
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
	b.Run("eager-key", func(b *testing.B) {
		s := New()
		n := 0
		var spawn func()
		spawn = func() {
			keySink = s.CurrentKey()
			if n++; n < b.N {
				s.Schedule(s.Now()+1, spawn)
			}
		}
		s.Schedule(0, spawn)
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
	b.Run("injected", func(b *testing.B) {
		s := New()
		n := 0
		var spawn func(any)
		spawn = func(any) {
			if n++; n < b.N {
				s.ScheduleCallInjected(s.ChildKey(s.Now()+1), spawn, nil)
			}
		}
		s.ScheduleCall(0, spawn, nil)
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
}

// BenchmarkTimerReset measures the retransmission-timer pattern: a Timer
// re-armed for every packet, firing rarely.
func BenchmarkTimerReset(b *testing.B) {
	s := New()
	t := NewTimer(s, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(1e9)
	}
}
