package stats

import (
	"sort"

	"bfc/internal/packet"
)

// DefaultSketchSize is the reservoir capacity streaming distributions use when
// the caller does not pick one. With capacity K the rank error of a quantile
// estimate concentrates around 1/sqrt(K); K = 4096 keeps it well under one
// percentile point in expectation while bounding the footprint of a
// distribution at ~32 KB regardless of how many samples a run records.
const DefaultSketchSize = 4096

// sketchSeed is the fixed seed every sketch uses. Streaming statistics must be
// deterministic — the harness digests artifacts byte-for-byte across reruns
// and worker counts — so the "randomness" of the reservoir is a pure function
// of (seed, sample index).
const sketchSeed uint64 = 0x5DEECE66D

// quantileSketch is a fixed-capacity, deterministic reservoir over a sample
// stream (Vitter's Algorithm R with a counter-based hash in place of a
// stateful RNG). It answers the same queries as the exact sample set:
//
//   - Count, Mean, Min and Max are exact (tracked outside the reservoir).
//   - Percentile and CDF are approximate: the reservoir is a uniform sample
//     of the stream, so a quantile estimate's rank error is ~1/sqrt(cap).
//   - While count <= cap the reservoir holds every sample, so all queries are
//     exact.
//
// Replacement indices come from a splitmix64-style mix of the seed and the
// sample's stream position, which makes the sketch state a deterministic
// function of the input sequence and trivially serializable (no RNG state).
type quantileSketch struct {
	cap      int
	seed     uint64
	count    int64
	sum      float64
	min, max float64
	samples  []float64
	sorted   bool
}

func newSketch(capacity int) *quantileSketch {
	if capacity <= 0 {
		capacity = DefaultSketchSize
	}
	return &quantileSketch{cap: capacity, seed: sketchSeed}
}

func (s *quantileSketch) add(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	i := s.count
	s.count++
	s.sum += v
	if i < int64(s.cap) {
		s.samples = append(s.samples, v)
		s.sorted = false
		return
	}
	// Keep the newcomer with probability cap/(i+1), evicting a uniform victim
	// drawn from element i of the splitmix64 stream seeded by s.seed.
	if j := packet.Mix64(s.seed+uint64(i)*packet.Gamma) % uint64(i+1); j < uint64(s.cap) {
		s.samples[j] = v
		s.sorted = false
	}
}

func (s *quantileSketch) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

func (s *quantileSketch) mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// percentile mirrors Distribution.Percentile over the reservoir, except that
// the extremes are answered from the exactly-tracked min/max.
func (s *quantileSketch) percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	s.ensureSorted()
	return percentileOfSorted(s.samples, p)
}

// cdf mirrors Distribution.CDF over the reservoir: the cumulative fraction at
// a reservoir rank estimates the stream's, because the reservoir is a uniform
// sample.
func (s *quantileSketch) cdf(maxPoints int) []CDFPoint {
	if s.count == 0 {
		return nil
	}
	s.ensureSorted()
	return cdfOfSorted(s.samples, maxPoints)
}
