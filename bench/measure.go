package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"bfc/internal/sim"
)

// benchWorkload is one benchmark workload as the runners below drive it.
type benchWorkload interface {
	// reference computes, by another route than a repetition takes, the
	// digest every repetition must reproduce (the serial engine for the
	// sharded workload, a serial harness run for the fleet). It returns ""
	// when there is no other route; the warm-up repetition is then the
	// reference.
	reference() (string, error)
	// repetition does the workload's whole job once, from generated inputs
	// to a checked digest.
	repetition(tr *tracer) (*outcome, error)
}

// outcome is what one repetition produced.
type outcome struct {
	// events is the number of simulated events executed.
	events uint64
	// digest must be the same in every repetition of a run.
	digest string
	// res is the run whose simulated statistics the benchmark reports.
	res *sim.Result
	// ops and failed count the operations inside the repetition (fleet jobs
	// and round trips); the runner counts the repetition itself.
	ops, failed int
	// layer holds the workload's own per-layer metrics on traced runs.
	layer map[string]float64
}

// sample is the host cost of one repetition.
type sample struct {
	wall, cpu     float64 // seconds, as measured
	mallocs       float64 // heap objects allocated
	allocBytes    float64
	result        *outcome
	rootSpanIndex int // the repetition's root span on traced runs
}

// processStart is where setup_s starts counting.
var processStart = time.Now()

// repSeconds is what one repetition of each workload takes on the reference
// box when it is quiet. A run times round(-seconds / repSeconds) repetitions,
// at least minReps: a count fixed by the run length, not by how fast the box
// or the code under test happens to be, so a parent and a change given the
// same -seconds always take the median of the same number of samples.
// Changing a figure here changes the benchmark.
var repSeconds = map[string]float64{
	"clos_incast_bfc":     1.2,
	"clos_incast_dcqcn":   0.8,
	"fattree1024_shards2": 0.87,
	"fleet_suite":         1.2,
}

// minReps is the fewest timed repetitions a run reports a median of.
const minReps = 10

// timedReps is the number of timed repetitions of a run of the workload.
func timedReps(workload string, seconds float64) int {
	return max(minReps, int(math.Round(seconds/repSeconds[workload])))
}

// tracedReps is the fixed repetition count of each half of a traced run.
const tracedReps = 3

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// measureRep runs one repetition from a collected heap and returns its cost.
func measureRep(w benchWorkload, tr *tracer) (sample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuSeconds(), time.Now()
	var out *outcome
	var err error
	root := -1
	if tr != nil {
		root = len(tr.spans)
	}
	tr.do("bench.repetition", func() { out, err = w.repetition(tr) })
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, err
	}
	return sample{
		wall: wall, cpu: cpu,
		mallocs:       float64(after.Mallocs - before.Mallocs),
		allocBytes:    float64(after.TotalAlloc - before.TotalAlloc),
		result:        out,
		rootSpanIndex: root,
	}, nil
}

// runState accumulates a run's operation counts and the digest all its
// repetitions must share.
type runState struct {
	attempted, failed int
	digest            string
	failures          []string
}

// check counts one repetition and the operations inside it.
func (rs *runState) check(what string, out *outcome) {
	rs.attempted += 1 + out.ops
	rs.failed += out.failed
	if out.failed > 0 {
		rs.failures = append(rs.failures, fmt.Sprintf("%s: %d operations inside it failed", what, out.failed))
	}
	switch {
	case out.digest != rs.digest:
		rs.failed++
		rs.failures = append(rs.failures, fmt.Sprintf("%s: digest %.12s, want %.12s", what, out.digest, rs.digest))
	case out.res == nil || out.res.FlowsCompleted == 0:
		rs.failed++
		rs.failures = append(rs.failures, what+": no flow completed")
	}
}

// setUp runs the reference computation and the warm-up repetition, and
// returns how long the process has run by the end of them.
func (rs *runState) setUp(w benchWorkload) (seconds float64, err error) {
	rs.digest, err = w.reference()
	if err != nil {
		return 0, fmt.Errorf("reference computation: %w", err)
	}
	warm, err := w.repetition(nil)
	if err != nil {
		return 0, fmt.Errorf("warm-up repetition: %w", err)
	}
	seconds = time.Since(processStart).Seconds()
	if rs.digest == "" {
		rs.digest = warm.digest
	}
	rs.check("warm-up", warm)
	return seconds, nil
}

// untraced is the result of an end-to-end run.
type untraced struct {
	runState
	setup     float64 // seconds from process start to the first timed repetition, as measured
	samples   []sample
	yardstick []float64 // every yardstick reading of the run, seconds
}

// runUntraced sets up, then times reps repetitions of the workload. A
// yardstick runs before, between and after all of those; its first reading,
// which also maps its state, is inside setup_s.
func runUntraced(w benchWorkload, reps int) (*untraced, error) {
	u := &untraced{}
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	u.yardstick = append(u.yardstick, y.run())
	if u.setup, err = u.setUp(w); err != nil {
		return nil, err
	}
	u.yardstick = append(u.yardstick, y.run())
	for i := 1; i <= reps; i++ {
		s, err := measureRep(w, nil)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		u.yardstick = append(u.yardstick, y.run())
		u.check(fmt.Sprintf("repetition %d", i), s.result)
		u.samples = append(u.samples, s)
	}
	return u, nil
}

func column(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// endToEnd returns the run's end-to-end metrics and, for the report, the
// distribution over the repetitions behind those that have one. Timings are in
// reference-box seconds: scaled by the run's yardstick readings (see
// yardstick.go).
func (u *untraced) endToEnd() (map[string]float64, map[string]summary) {
	k := scale(u.yardstick)
	sums := map[string]summary{
		"run_wall_s":       summarize(column(u.samples, func(s sample) float64 { return s.wall * k })),
		"run_cpu_s":        summarize(column(u.samples, func(s sample) float64 { return s.cpu * k })),
		"events_per_s":     summarize(column(u.samples, func(s sample) float64 { return float64(s.result.events) / (s.wall * k) })),
		"allocs_per_run":   summarize(column(u.samples, func(s sample) float64 { return s.mallocs })),
		"alloc_mb_per_run": summarize(column(u.samples, func(s sample) float64 { return s.allocBytes / 1e6 })),
	}
	values := map[string]float64{"setup_s": u.setup * k, "peak_rss_mb": peakRSSMB()}
	for name, s := range sums {
		values[name] = s.Median
	}
	return values, sums
}

// traced is the result of a per-layer run.
type traced struct {
	runState
	tracer  *tracer
	plain   []sample // tracing off
	spanned []sample // tracing on
}

// runTraced sets up once, runs tracedReps repetitions with tracing off and
// tracedReps with tracing on, so the tracing overhead is measured inside one
// process.
func runTraced(w benchWorkload, enableTracing func(bool)) (*traced, error) {
	t := &traced{tracer: newTracer()}
	if _, err := t.setUp(w); err != nil {
		return nil, err
	}
	for _, on := range []bool{false, true} {
		enableTracing(on)
		for i := 1; i <= tracedReps; i++ {
			var tr *tracer
			if on {
				tr = t.tracer
				tr.rep = i
			}
			s, err := measureRep(w, tr)
			if err != nil {
				return nil, fmt.Errorf("repetition %d (tracing %v): %w", i, on, err)
			}
			t.check(fmt.Sprintf("repetition %d (tracing %v)", i, on), s.result)
			if on {
				t.spanned = append(t.spanned, s)
			} else {
				t.plain = append(t.plain, s)
			}
		}
	}
	return t, nil
}

// medianRep returns the traced repetition whose wall time is the median.
func (t *traced) medianRep() sample {
	want := summarize(column(t.spanned, func(s sample) float64 { return s.wall })).Median
	best := t.spanned[0]
	for _, s := range t.spanned {
		if math.Abs(s.wall-want) < math.Abs(best.wall-want) {
			best = s
		}
	}
	return best
}
