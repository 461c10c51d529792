package telemetry

import (
	"testing"

	"bfc/internal/units"
)

// emitSite models the instrumentation pattern every runtime emit site uses: a
// Recorder-typed field guarded by a nil check. The benchmarks pin the cost of
// both branches, and the CI benchjson gate keeps them from regressing.
type emitSite struct {
	rec Recorder
}

//go:noinline
func (s *emitSite) maybeRecord(at units.Time) {
	if s.rec != nil {
		s.rec.Record(Event{At: at, Kind: KindDrop, Node: 3, Port: 1, Queue: -1, Value: 1040})
	}
}

// BenchmarkRecorderDisabled measures the cost telemetry adds to a hot path
// when no recorder is attached: the nil-interface check and nothing else.
func BenchmarkRecorderDisabled(b *testing.B) {
	site := &emitSite{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site.maybeRecord(units.Time(i))
	}
}

// BenchmarkRecorderRingBuffer measures a full Record into the bounded ring —
// the enabled path — which must stay allocation-free.
func BenchmarkRecorderRingBuffer(b *testing.B) {
	site := &emitSite{rec: NewRing(1 << 14)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site.maybeRecord(units.Time(i))
	}
}
