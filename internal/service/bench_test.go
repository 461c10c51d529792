package service

import (
	"testing"

	"bfc/internal/harness"
)

// BenchmarkSuiteCompile measures the submission fast path up to job
// expansion: wire-form validation, registry resolution, grid expansion and
// suite hashing for a six-scheme Fig 5a panel. No topologies are built and no
// simulations run.
func BenchmarkSuiteCompile(b *testing.B) {
	blob := []byte(`{"figure":"fig05a","scale":"reduced"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := ParseSuiteSpec(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spec.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSubmitCacheHit measures a fully-cached submission end to
// end: compile, one Store.Read per job (the artifact read through a pooled
// chunk and found equal, in place, to the bytes the store wrote, which it
// returns without a copy; only bytes the store has not seen are read whole and
// parsed as one JSON line) and suite registration — the steady-state cost
// of accepting an already-computed grid, with zero simulation runs per op
// (asserted via the executed-jobs counter) and no record decoded or retained.
func BenchmarkServiceSubmitCacheHit(b *testing.B) {
	store, err := harness.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(Config{Store: store, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	spec := &SuiteSpec{Figure: "fig05a", Scale: "tiny", Schemes: []string{"BFC", "DCQCN"}}
	status, err := svc.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if s := waitState(b, svc, status.ID); s.State != StateDone {
		b.Fatalf("warm-up suite ended %s: %s", s.State, s.Error)
	}
	execBefore := svc.Stats().JobsExecuted

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if s.State != StateDone || s.Cached != 2 {
			b.Fatalf("submission missed the cache: %+v", s)
		}
	}
	b.StopTimer()
	if got := svc.Stats().JobsExecuted; got != execBefore {
		b.Fatalf("cache-hit benchmark executed %d simulations", got-execBefore)
	}
}
