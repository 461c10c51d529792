package telemetry

import (
	"os"
	"os/exec"
	"testing"

	"bfc/internal/units"
)

// emitSite models the instrumentation pattern every runtime emit site uses: a
// Recorder-typed field guarded by a nil check. The benchmarks time both
// branches, and TestEmitSiteAllocFree holds the same loop to zero allocations
// with and without a recorder.
type emitSite struct {
	rec Recorder
}

//go:noinline
func (s *emitSite) maybeRecord(at units.Time) {
	if s.rec != nil {
		s.rec.Record(Event{At: at, Kind: KindDrop, Node: 3, Port: 1, Queue: -1, Value: 1040})
	}
}

func (s *emitSite) loop(n int) {
	for i := 0; i < n; i++ {
		s.maybeRecord(units.Time(i))
	}
}

// BenchmarkRecorderDisabled measures the cost telemetry adds to a hot path
// when no recorder is attached: the nil-interface check and nothing else.
func BenchmarkRecorderDisabled(b *testing.B) {
	site := &emitSite{}
	b.ReportAllocs()
	site.loop(b.N)
}

// BenchmarkRecorderRingBuffer measures a full Record into the bounded ring —
// the enabled path — which must stay allocation-free.
func BenchmarkRecorderRingBuffer(b *testing.B) {
	site := &emitSite{rec: NewRing(1 << 14)}
	b.ReportAllocs()
	b.ResetTimer()
	site.loop(b.N)
}

// TestEmitSiteAllocFree runs the ring row long enough to wrap (1<<15 records
// into 1<<14 slots), so overwriting is covered, not only filling.
// testing.AllocsPerRun counts the whole process, so the test measures in a
// fresh child of the test binary, where no earlier test's state can allocate.
func TestEmitSiteAllocFree(t *testing.T) {
	if !inFreshChild(t) {
		return
	}
	for name, site := range map[string]*emitSite{
		"RecorderDisabled":   {},
		"RecorderRingBuffer": {rec: NewRing(1 << 14)},
	} {
		if allocs := testing.AllocsPerRun(1, func() { site.loop(1 << 15) }); allocs != 0 {
			t.Errorf("%s: %v allocations in %d records, want 0", name, allocs, 1<<15)
		}
	}
}

// childEnv marks a fresh child of the test binary that runs one test alone.
const childEnv = "BFC_TEST_CHILD"

// inFreshChild reports whether this process is a fresh child of the test
// binary running t alone. Otherwise it runs t in one, waits for it, fails t
// with the child's output if the child failed, and reports false. A
// measurement of the whole process's allocations (runtime.MemStats.TotalAlloc,
// testing.AllocsPerRun) made in the child sees nothing of what earlier tests
// left running or allocating.
func inFreshChild(t *testing.T) bool {
	if os.Getenv(childEnv) == t.Name() {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	t.Logf("fresh child:\n%s", out)
	if err != nil {
		t.Fatalf("%s in a fresh child: %v", t.Name(), err)
	}
	return false
}
