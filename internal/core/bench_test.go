package core

import (
	"testing"

	"bfc/internal/bloom"
	"bfc/internal/units"
)

var framesSink []PauseFrame

// tickLoop is the per-τ control path of a switch whose pause set stands still:
// an 8-port engine with one paused flow on each of ingresses 0–5 (so six
// frames every tick, two ports silent), ticked n times with nothing arriving
// or departing in between. Each frame's filter goes back to the pool right
// away, as a receiver puts back the filter a newer frame displaces. Its cost
// is the resume-count check plus one frame, a 128 B copy, per paused ingress.
func tickLoop(tb testing.TB) func(n int) {
	const ports, paused = 8, 6
	view := newFakeView(100 * units.Gbps)
	view.active[ports-1] = 1
	e := NewEngine(testConfig(), ports, view)
	for in := 0; in < paused; in++ {
		f := mkFlow(in+1, int32(in), 99)
		for seq := 0; !e.FlowPaused(f, in, ports-1); seq++ {
			e.OnArrival(0, in, ports-1, dataPkt(f, seq, 1000, seq == 0))
		}
	}
	// The first tick carves the records and grows the frame slice; every
	// later one reuses them.
	pool := bloom.NewPool()
	now := units.Time(0)
	putBack := func(frames []PauseFrame) {
		for _, fr := range frames {
			pool.Put(fr.Filter)
		}
	}
	putBack(e.Tick(now, pool))
	return func(n int) {
		for i := 0; i < n; i++ {
			now += e.cfg.Tau
			framesSink = e.Tick(now, pool)
			if len(framesSink) != paused {
				tb.Fatalf("tick sent %d frames, want %d", len(framesSink), paused)
			}
			putBack(framesSink)
		}
	}
}

func BenchmarkTick(b *testing.B) {
	loop := tickLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}

// TestTickSteadyStateAllocFree: ticking an unchanged pause set allocates
// nothing once each frame's filter goes back to the pool.
func TestTickSteadyStateAllocFree(t *testing.T) {
	loop := tickLoop(t)
	if allocs := testing.AllocsPerRun(1, func() { loop(1024) }); allocs != 0 {
		t.Errorf("%v allocations in 1024 ticks of an unchanged pause set, want 0", allocs)
	}
}
