package eventsim

import (
	"fmt"
	"testing"

	"bfc/internal/units"
)

// The scheduler benchmarks below are developer tools: `go test -bench` prints
// them (benchstat reads that text), and speed is claimed and gated by bench/
// (eventsim.schedule_fire_ns and the four workloads), not here. What every
// machine can check is that steady-state schedule/fire allocates nothing, so
// each benchmark is one loop(n) built by a set-up function, and
// TestSteadyStateAllocFree runs the same loops under testing.AllocsPerRun.

// scheduleFireLoop is the common schedule-then-fire cycle beside depth pending
// events far in the future. Every new event is the global minimum — which no
// device produces; scheduleFireInFlightLoop is the simulator-shaped one — so
// since the calendar front this times a refill per fire beside a far heap
// that is never touched.
func scheduleFireLoop(depth int) func(n int) {
	s := New()
	fn := func() {}
	const horizon = units.Time(1 << 40)
	for i := 0; i < depth; i++ {
		s.Schedule(horizon+units.Time(i), fn)
	}
	at := units.Time(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			s.Schedule(at, fn)
			s.Step()
			at++
		}
	}
}

// BenchmarkScheduleFire measures schedule/fire with a nearly empty heap (the
// pattern of timers and link events in a quiet simulation).
func BenchmarkScheduleFire(b *testing.B) { runLoop(b, scheduleFireLoop(0)) }

// BenchmarkScheduleFireDepth1k measures schedule/fire against a queue holding
// 1024 pending events far in the future.
func BenchmarkScheduleFireDepth1k(b *testing.B) { runLoop(b, scheduleFireLoop(1024)) }

// scheduleFireInFlightLoop is schedule/fire in the shape a loaded simulation
// gives the queue (measured on the bench's clos_incast_bfc configuration):
// 8192 flow arrivals pre-scheduled across a 100 us horizon, each re-arming
// itself a horizon ahead so the far tier stays that deep, and 4096 deliveries
// in flight, each fire scheduling one successor 5 ns, 80 ns or 1.08 us out in
// the measured 1:1:2 mix (serialisation, a short hop, propagation +
// serialisation).
func scheduleFireInFlightLoop() func(n int) {
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
	// Reach the steady state before timing: once every set-up arrival has
	// fired, the queue holds its working shape and the arenas stop growing.
	for s.Now() < horizon {
		s.Step()
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			s.Step()
		}
	}
}

func BenchmarkScheduleFireInFlight(b *testing.B) { runLoop(b, scheduleFireInFlightLoop()) }

// scheduleCallLoop is the closure-free variant used by the packet delivery
// path: one stored func(any) plus a pointer argument.
func scheduleCallLoop() func(n int) {
	s := New()
	var sink int
	fn := func(x any) { sink += *x.(*int) }
	arg := new(int)
	at := units.Time(0)
	return func(n int) {
		for i := 0; i < n; i++ {
			s.ScheduleCall(at, fn, arg)
			s.Step()
			at++
		}
	}
}

func BenchmarkScheduleCall(b *testing.B) { runLoop(b, scheduleCallLoop()) }

// scheduleCancelLoop is lazy cancellation including the periodic compaction
// sweeps it triggers.
func scheduleCancelLoop() func(n int) {
	s := New()
	fn := func() {}
	at := units.Time(1e9)
	return func(n int) {
		for i := 0; i < n; i++ {
			e := s.Schedule(at, fn)
			s.Cancel(e)
			at++
		}
	}
}

func BenchmarkScheduleCancel(b *testing.B) { runLoop(b, scheduleCancelLoop()) }

// injectedLoop is the boundary path: a chain of dispatches, each taking the
// key of its successor on the sending side (ChildKey) and filing it under
// that key on the receiving side (ScheduleCallInjected) — one shard here —
// the per-delivery cost of a cross-shard hop.
func injectedLoop() func(n int) {
	s := New()
	left := 0
	var replay func(any)
	replay = func(any) {
		if left--; left > 0 {
			s.ScheduleCallInjected(s.ChildKey(s.Now()+1, 1), 1, replay, nil)
		}
	}
	return func(n int) {
		left = n
		s.ScheduleCallTo(s.Now(), 1, replay, nil)
		s.Run()
	}
}

func BenchmarkScheduleInjected(b *testing.B) { runLoop(b, injectedLoop()) }

// timerResetLoop is the retransmission-timer pattern: a Timer pushed back
// for every packet, firing rarely — each Reset re-keys the queued record.
func timerResetLoop() func(n int) {
	s := New()
	t := NewTimer(s, func(any) {}, nil)
	d := units.Time(1e9)
	return func(n int) {
		for i := 0; i < n; i++ {
			t.Reset(d)
			d++
		}
	}
}

func BenchmarkTimerReset(b *testing.B) { runLoop(b, timerResetLoop()) }

// timerResetEarlierLoop is the other Reset path: every Reset brings the
// deadline forward, so it cancels the queued record and schedules a new one,
// including the compaction sweeps the cancellations trigger.
func timerResetEarlierLoop() func(n int) {
	s := New()
	t := NewTimer(s, func(any) {}, nil)
	d := units.Time(1 << 50)
	return func(n int) {
		for i := 0; i < n; i++ {
			t.Reset(d)
			d--
		}
	}
}

func BenchmarkTimerResetEarlier(b *testing.B) { runLoop(b, timerResetEarlierLoop()) }

// bucketBurstLoop is the worst case for cur: size records at one instant,
// each scheduling a child 1 ps later, in the same bucket and after every
// record of the run, so that all size children go to side and fire after
// the run has drained. One iteration is one burst of 2·size events.
func bucketBurstLoop(size int) func(n int) {
	s := New()
	child := func(any) {}
	parent := func(any) { s.ScheduleCall(s.Now()+1, child, nil) }
	return func(n int) {
		for i := 0; i < n; i++ {
			at := (s.Now()>>bucketShift + 1) << bucketShift
			for j := 0; j < size; j++ {
				s.ScheduleCall(at, parent, nil)
			}
			s.Run()
		}
	}
}

var bucketBurstSizes = []int{64, 4096}

// BenchmarkBucketBurst guards cur against a quadratic path: a record filed
// into the draining bucket by a search of the run read about 100 times slower
// at size 4096 than a heap.
func BenchmarkBucketBurst(b *testing.B) {
	for _, size := range bucketBurstSizes {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) { runLoop(b, bucketBurstLoop(size)) })
	}
}

// runLoop times loop(b.N).
func runLoop(b *testing.B, loop func(n int)) {
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}

// TestSteadyStateAllocFree holds every benchmark above to zero allocations
// once its arenas have grown: one allocation anywhere in 4096 iterations
// fails it (AllocsPerRun warms with one call of its own first).
func TestSteadyStateAllocFree(t *testing.T) {
	type row struct {
		name string
		loop func(n int)
	}
	rows := []row{
		{"ScheduleFire", scheduleFireLoop(0)},
		{"ScheduleFireDepth1k", scheduleFireLoop(1024)},
		{"ScheduleFireInFlight", scheduleFireInFlightLoop()},
		{"ScheduleCall", scheduleCallLoop()},
		{"ScheduleCancel", scheduleCancelLoop()},
		{"TimerReset", timerResetLoop()},
		{"TimerResetEarlier", timerResetEarlierLoop()},
		{"ScheduleInjected", injectedLoop()},
	}
	// A burst is 2·size events, so 4096 iterations are 64 bursts of 64
	// records (past the sort cutoff): 8192 events, about the other rows'
	// work.
	burst := bucketBurstLoop(64)
	rows = append(rows, row{"BucketBurst/n=64", func(n int) { burst(n / 64) }})
	for _, r := range rows {
		if allocs := testing.AllocsPerRun(1, func() { r.loop(4096) }); allocs != 0 {
			t.Errorf("%s: %v allocations in 4096 steady-state iterations, want 0", r.name, allocs)
		}
	}
}
