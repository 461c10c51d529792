// Package stats implements the measurement pipeline the paper's evaluation
// uses: flow-completion-time slowdowns bucketed by flow size, distribution
// summaries (percentiles and CDFs), buffer-occupancy sampling, link
// utilization, and pause-time accounting.
package stats

import (
	"fmt"
	"math"
	"sort"

	"bfc/internal/units"
)

// Distribution accumulates scalar samples and answers percentile and CDF
// queries. The zero value is ready to use and is exact: it keeps every sample,
// and all queries are computed over the full sample set.
//
// NewStreamingDistribution returns a constant-memory variant backed by a
// deterministic fixed-capacity reservoir sketch: Count, Mean and Max stay
// exact, Percentile and CDF become approximations whose rank error shrinks as
// 1/sqrt(capacity) (see DefaultSketchSize). Both variants answer the same API
// and JSON round-trip losslessly, so they are interchangeable everywhere a
// Distribution is consumed.
type Distribution struct {
	samples []float64
	sorted  bool
	sum     float64
	// sketch, when non-nil, puts the distribution in streaming mode; samples,
	// sorted and sum above are then unused.
	sketch *quantileSketch
}

// NewStreamingDistribution returns a constant-memory distribution holding at
// most sketchSize samples (DefaultSketchSize when <= 0).
func NewStreamingDistribution(sketchSize int) Distribution {
	return Distribution{sketch: newSketch(sketchSize)}
}

// Streaming reports whether the distribution is in constant-memory mode.
func (d *Distribution) Streaming() bool { return d.sketch != nil }

// StoredSamples returns how many samples the distribution currently holds in
// memory: Count() in exact mode, at most the sketch capacity in streaming
// mode. It is the quantity the scale tier bounds.
func (d *Distribution) StoredSamples() int {
	if d.sketch != nil {
		return len(d.sketch.samples)
	}
	return len(d.samples)
}

// Add records a sample.
func (d *Distribution) Add(v float64) {
	if d.sketch != nil {
		d.sketch.add(v)
		return
	}
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

// Count returns the number of samples.
func (d *Distribution) Count() int {
	if d.sketch != nil {
		return int(d.sketch.count)
	}
	return len(d.samples)
}

// Mean returns the sample mean (0 when empty). Exact in both modes.
func (d *Distribution) Mean() float64 {
	if d.sketch != nil {
		return d.sketch.mean()
	}
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

// Max returns the largest sample (0 when empty). Exact in both modes.
func (d *Distribution) Max() float64 {
	if d.sketch != nil {
		if d.sketch.count == 0 {
			return 0
		}
		return d.sketch.max
	}
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank-with-interpolation; 0 when empty. In streaming mode the
// extremes (p = 0, 100) are exact and interior percentiles are reservoir
// estimates.
func (d *Distribution) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if d.sketch != nil {
		return d.sketch.percentile(p)
	}
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return percentileOfSorted(d.samples, p)
}

// percentileOfSorted interpolates the p-th percentile over a non-empty sorted
// slice. Shared by the exact and streaming paths so the two modes stay
// numerically identical (streaming queries are byte-exact while the stream
// fits in the reservoir).
func percentileOfSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// cdfOfSorted renders up to maxPoints evenly spaced quantiles of a non-empty
// sorted slice. Shared by the exact and streaming paths.
func cdfOfSorted(sorted []float64, maxPoints int) []CDFPoint {
	if maxPoints < 2 {
		maxPoints = 2
	}
	n := len(sorted)
	points := maxPoints
	if points > n {
		points = n
	}
	if points <= 1 {
		// A single sample (or single requested point): the evenly-spaced
		// index formula below would divide by points-1 == 0.
		return []CDFPoint{{Value: sorted[n-1], Cum: 1}}
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := i * (n - 1) / (points - 1)
		out = append(out, CDFPoint{
			Value: sorted[idx],
			Cum:   float64(idx+1) / float64(n),
		})
	}
	return out
}

// CDF returns (value, cumulative fraction) pairs at up to maxPoints evenly
// spaced quantiles, suitable for plotting.
func (d *Distribution) CDF(maxPoints int) []CDFPoint {
	if d.sketch != nil {
		return d.sketch.cdf(maxPoints)
	}
	if len(d.samples) == 0 {
		return nil
	}
	d.ensureSorted()
	return cdfOfSorted(d.samples, maxPoints)
}

func (d *Distribution) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value float64
	Cum   float64
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
// when nil).
func NewFCTCollector(buckets []SizeBucket) *FCTCollector {
	if buckets == nil {
		buckets = DefaultSizeBuckets()
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

// Streaming reports whether the collector's distributions are
// constant-memory sketches.
func (c *FCTCollector) Streaming() bool { return c.all.Streaming() }

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
	Max    float64
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
			Max:    d.Max(),
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
