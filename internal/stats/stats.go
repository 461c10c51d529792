// Package stats implements the measurement pipeline the paper's evaluation
// uses: flow-completion-time slowdowns bucketed by flow size and distribution
// summaries (percentiles and CDFs) of any sampled scalar, such as buffer
// occupancy.
package stats

import (
	"fmt"
	"math"
	"sort"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// DefaultSketchSize is the reservoir capacity streaming distributions use when
// the caller does not pick one. With capacity K the rank error of a quantile
// estimate concentrates around 1/sqrt(K); K = 4096 keeps it well under one
// percentile point in expectation while bounding the footprint of a
// distribution at ~32 KB regardless of how many samples a run records.
const DefaultSketchSize = 4096

// sketchSeed seeds every reservoir. Streaming statistics must be
// deterministic — the harness digests artifacts byte-for-byte across reruns
// and worker counts — so the "randomness" of the reservoir is a pure function
// of (seed, sample index).
const sketchSeed uint64 = 0x5DEECE66D

// Distribution accumulates scalar samples and answers percentile and CDF
// queries. It is a reservoir over the sample stream (Vitter's Algorithm R with
// a counter-based hash in place of a stateful RNG) of capacity cap:
//
//   - Count, Mean, Max and the extreme percentiles are exact (tracked outside
//     the reservoir).
//   - While count <= cap the reservoir holds every sample, so every query is
//     exact. Capacity 0 means the reservoir never fills: that is exact mode,
//     and the zero value, ready to use.
//   - Past cap, interior percentiles and the CDF are estimates over a uniform
//     sample of the stream, with rank error ~1/sqrt(cap) (see
//     DefaultSketchSize).
//
// Replacement indices come from a splitmix64-style mix of sketchSeed and the
// sample's stream position, so the state is a deterministic function of the
// input sequence and serializes without RNG state.
type Distribution struct {
	cap      int
	count    int64
	sum      float64
	min, max float64
	samples  []float64
	sorted   bool
}

// NewStreamingDistribution returns a constant-memory distribution holding at
// most sketchSize samples (DefaultSketchSize when <= 0).
func NewStreamingDistribution(sketchSize int) Distribution {
	if sketchSize <= 0 {
		sketchSize = DefaultSketchSize
	}
	return Distribution{cap: sketchSize}
}

// Streaming reports whether the distribution is in constant-memory mode.
func (d *Distribution) Streaming() bool { return d.cap > 0 }

// StoredSamples returns how many samples the distribution currently holds in
// memory: Count() in exact mode, at most the capacity in streaming mode. It is
// the quantity the scale tier bounds.
func (d *Distribution) StoredSamples() int { return len(d.samples) }

// Add records a sample.
func (d *Distribution) Add(v float64) {
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	i := d.count
	d.count++
	d.sum += v
	if d.cap == 0 || i < int64(d.cap) {
		d.samples = append(d.samples, v)
		d.sorted = false
		return
	}
	// Keep the newcomer with probability cap/(i+1), evicting a uniform victim
	// drawn from element i of the splitmix64 stream seeded by sketchSeed.
	if j := packet.Mix64(sketchSeed+uint64(i)*packet.Gamma) % uint64(i+1); j < uint64(d.cap) {
		d.samples[j] = v
		d.sorted = false
	}
}

// Count returns the number of samples.
func (d *Distribution) Count() int { return int(d.count) }

// Mean returns the sample mean (0 when empty).
func (d *Distribution) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank-with-interpolation over the reservoir; 0 when empty. The
// extremes (p = 0, 100) are the tracked minimum and maximum.
func (d *Distribution) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	switch {
	case d.count == 0:
		return 0
	case p == 0:
		return d.min
	case p == 100:
		return d.max
	}
	d.ensureSorted()
	s := d.samples
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// SizeBucket is a flow-size bucket used for the per-size FCT slowdown curves
// (the x-axis of Fig 5, 7, 9, 11, 12, 13, 14).
type SizeBucket struct {
	// Lo (exclusive for all but the first bucket) and Hi (inclusive) bound
	// the flow sizes in bytes.
	Lo, Hi units.Bytes
	// Label is the human-readable bucket name used in reports.
	Label string
}

// DefaultSizeBuckets mirrors the paper's log-scale flow-size axis from
// sub-1KB to >1MB.
func DefaultSizeBuckets() []SizeBucket {
	return []SizeBucket{
		{Lo: 0, Hi: 1 * units.KB, Label: "<1KB"},
		{Lo: 1 * units.KB, Hi: 3 * units.KB, Label: "1-3KB"},
		{Lo: 3 * units.KB, Hi: 10 * units.KB, Label: "3-10KB"},
		{Lo: 10 * units.KB, Hi: 30 * units.KB, Label: "10-30KB"},
		{Lo: 30 * units.KB, Hi: 100 * units.KB, Label: "30-100KB"},
		{Lo: 100 * units.KB, Hi: 300 * units.KB, Label: "100-300KB"},
		{Lo: 300 * units.KB, Hi: 1 * units.MB, Label: "300KB-1MB"},
		{Lo: 1 * units.MB, Hi: 1 << 62, Label: ">1MB"},
	}
}

// FCTCollector accumulates flow completion times as slowdowns (FCT divided by
// the ideal FCT of a flow of that size on an unloaded network) and reports
// them per flow-size bucket.
type FCTCollector struct {
	buckets []SizeBucket
	perSize []Distribution
	all     Distribution
}

// NewFCTCollector creates a collector over the given buckets (DefaultSizeBuckets
// when nil). It panics on an empty non-nil bucket list: Record would have no
// bucket to attribute a flow to.
func NewFCTCollector(buckets []SizeBucket) *FCTCollector {
	if buckets == nil {
		buckets = DefaultSizeBuckets()
	}
	if len(buckets) == 0 {
		panic("stats: FCT collector with no size buckets")
	}
	return &FCTCollector{
		buckets: buckets,
		perSize: make([]Distribution, len(buckets)),
	}
}

// NewStreamingFCTCollector creates a collector whose per-bucket and overall
// distributions are constant-memory sketches of at most sketchSize samples
// each (DefaultSketchSize when <= 0), so the collector's footprint is
// independent of the number of completed flows.
func NewStreamingFCTCollector(buckets []SizeBucket, sketchSize int) *FCTCollector {
	c := NewFCTCollector(buckets)
	c.all = NewStreamingDistribution(sketchSize)
	for i := range c.perSize {
		c.perSize[i] = NewStreamingDistribution(sketchSize)
	}
	return c
}

// StoredSamples returns the total number of samples the collector holds in
// memory across all its distributions; in streaming mode it is bounded by
// (len(buckets)+1) * sketch capacity regardless of Count().
func (c *FCTCollector) StoredSamples() int {
	total := c.all.StoredSamples()
	for i := range c.perSize {
		total += c.perSize[i].StoredSamples()
	}
	return total
}

// Record adds a completed flow.
func (c *FCTCollector) Record(size units.Bytes, fct, ideal units.Time) {
	if fct <= 0 || ideal <= 0 {
		panic("stats: non-positive FCT or ideal FCT")
	}
	slowdown := float64(fct) / float64(ideal)
	if slowdown < 1 {
		// Numerical slack: a flow cannot beat the ideal; clamp tiny
		// violations caused by the ideal's store-and-forward approximation.
		slowdown = 1
	}
	c.all.Add(slowdown)
	for i, b := range c.buckets {
		if size > b.Lo && size <= b.Hi || (i == 0 && size <= b.Hi) {
			c.perSize[i].Add(slowdown)
			return
		}
	}
	// Out of range (larger than the last bucket's Hi) — attribute to the last
	// bucket.
	c.perSize[len(c.perSize)-1].Add(slowdown)
}

// Count returns the number of recorded flows.
func (c *FCTCollector) Count() int { return c.all.Count() }

// OverallPercentile returns a percentile of the slowdown over all flows.
func (c *FCTCollector) OverallPercentile(p float64) float64 { return c.all.Percentile(p) }

// BucketRow is the per-bucket summary used to regenerate the paper's FCT
// slowdown curves.
type BucketRow struct {
	Bucket SizeBucket
	Count  int
	Mean   float64
	P50    float64
	P95    float64
	P99    float64
}

// Rows returns one row per non-empty bucket, in size order.
func (c *FCTCollector) Rows() []BucketRow {
	var rows []BucketRow
	for i, b := range c.buckets {
		d := &c.perSize[i]
		if d.Count() == 0 {
			continue
		}
		rows = append(rows, BucketRow{
			Bucket: b,
			Count:  d.Count(),
			Mean:   d.Mean(),
			P50:    d.Percentile(50),
			P95:    d.Percentile(95),
			P99:    d.Percentile(99),
		})
	}
	return rows
}

// TailSlowdownBySize returns the p99 slowdown for each non-empty bucket
// keyed by label — the series plotted in Fig 5.
func (c *FCTCollector) TailSlowdownBySize() map[string]float64 {
	out := map[string]float64{}
	for _, r := range c.Rows() {
		out[r.Bucket.Label] = r.P99
	}
	return out
}
