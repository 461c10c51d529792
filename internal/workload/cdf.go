// Package workload synthesizes the traffic the paper evaluates on: flows with
// sizes drawn from published data-center flow-size distributions (Google
// all-apps, Facebook Hadoop, DCTCP WebSearch), lognormal inter-arrival times
// (σ = 2, §4.1), and optional synthetic N-to-1 incast bursts.
//
// The paper itself synthesized traces to match published distributions; this
// package does the same. The embedded CDFs are approximations of the curves
// in Fig 4 — the qualitative properties the evaluation relies on (the large
// majority of Google flows are under 1 KB; most bytes fit within one
// bandwidth-delay product; WebSearch has a heavier tail) are preserved.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bfc/internal/units"
)

// CDFPoint is one point of a cumulative distribution over flow sizes:
// Prob(size <= Size) = Cum.
type CDFPoint struct {
	Size units.Bytes
	Cum  float64
}

// CDF is a piecewise-linear cumulative distribution over flow sizes
// (interpolated in linear size space between the listed points).
type CDF struct {
	Name   string
	points []CDFPoint
}

// NewCDF builds a CDF from points. Points must be strictly increasing in both
// size and cumulative probability, and the last cumulative value must be 1.
func NewCDF(name string, points []CDFPoint) *CDF {
	if len(points) < 2 {
		panic("workload: CDF needs at least two points")
	}
	for i, p := range points {
		if p.Size <= 0 || p.Cum <= 0 || p.Cum > 1 {
			panic(fmt.Sprintf("workload: invalid CDF point %+v", p))
		}
		if i > 0 && (p.Size <= points[i-1].Size || p.Cum < points[i-1].Cum) {
			panic(fmt.Sprintf("workload: CDF points must be nondecreasing (at %d)", i))
		}
	}
	if points[len(points)-1].Cum != 1 {
		panic("workload: CDF must end at cumulative probability 1")
	}
	cp := make([]CDFPoint, len(points))
	copy(cp, points)
	return &CDF{Name: name, points: cp}
}

// Sample draws a flow size from the distribution using the supplied RNG.
func (c *CDF) Sample(rng *rand.Rand) units.Bytes {
	u := rng.Float64()
	// Find the first point with Cum >= u and interpolate from the previous.
	idx := sort.Search(len(c.points), func(i int) bool { return c.points[i].Cum >= u })
	if idx == 0 {
		// Below the first point: interpolate from size 1.
		p := c.points[0]
		frac := u / p.Cum
		size := units.Bytes(math.Ceil(frac * float64(p.Size)))
		if size < 1 {
			size = 1
		}
		return size
	}
	if idx >= len(c.points) {
		return c.points[len(c.points)-1].Size
	}
	lo, hi := c.points[idx-1], c.points[idx]
	if hi.Cum == lo.Cum {
		return hi.Size
	}
	frac := (u - lo.Cum) / (hi.Cum - lo.Cum)
	size := units.Bytes(math.Ceil(float64(lo.Size) + frac*float64(hi.Size-lo.Size)))
	if size < 1 {
		size = 1
	}
	return size
}

// Mean returns the expected flow size implied by the piecewise-linear CDF.
func (c *CDF) Mean() units.Bytes {
	var mean float64
	prevCum := 0.0
	prevSize := 1.0
	for _, p := range c.points {
		w := p.Cum - prevCum
		mean += w * (prevSize + float64(p.Size)) / 2
		prevCum = p.Cum
		prevSize = float64(p.Size)
	}
	return units.Bytes(mean)
}

// ByteWeightedCDF returns the cumulative fraction of *bytes* contributed by
// flows up to each size point — the curve plotted in Fig 4 of the paper.
func (c *CDF) ByteWeightedCDF() []CDFPoint {
	total := 0.0
	contrib := make([]float64, len(c.points))
	prevCum, prevSize := 0.0, 1.0
	for i, p := range c.points {
		w := p.Cum - prevCum
		avg := (prevSize + float64(p.Size)) / 2
		contrib[i] = w * avg
		total += contrib[i]
		prevCum, prevSize = p.Cum, float64(p.Size)
	}
	out := make([]CDFPoint, len(c.points))
	running := 0.0
	for i, p := range c.points {
		running += contrib[i]
		out[i] = CDFPoint{Size: p.Size, Cum: running / total}
	}
	return out
}

// FractionBelow returns the fraction of flows with size <= s.
func (c *CDF) FractionBelow(s units.Bytes) float64 {
	if s >= c.points[len(c.points)-1].Size {
		return 1
	}
	idx := sort.Search(len(c.points), func(i int) bool { return c.points[i].Size >= s })
	if idx == 0 {
		return c.points[0].Cum * float64(s) / float64(c.points[0].Size)
	}
	lo, hi := c.points[idx-1], c.points[idx]
	frac := float64(s-lo.Size) / float64(hi.Size-lo.Size)
	return lo.Cum + frac*(hi.Cum-lo.Cum)
}

// The three industry workloads from Fig 4. Sizes in bytes.

// Google returns the aggregated all-application Google data-center
// distribution: dominated by sub-1KB flows (the paper notes >80 % of flows
// are under 1 KB) with a modest heavy tail.
func Google() *CDF {
	return NewCDF("Google", []CDFPoint{
		{Size: 64, Cum: 0.05},
		{Size: 128, Cum: 0.18},
		{Size: 256, Cum: 0.40},
		{Size: 512, Cum: 0.64},
		{Size: 1 * 1024, Cum: 0.82},
		{Size: 2 * 1024, Cum: 0.88},
		{Size: 4 * 1024, Cum: 0.92},
		{Size: 8 * 1024, Cum: 0.94},
		{Size: 16 * 1024, Cum: 0.955},
		{Size: 32 * 1024, Cum: 0.965},
		{Size: 64 * 1024, Cum: 0.975},
		{Size: 128 * 1024, Cum: 0.985},
		{Size: 256 * 1024, Cum: 0.9925},
		{Size: 1024 * 1024, Cum: 0.997},
		{Size: 5 * 1024 * 1024, Cum: 0.9995},
		{Size: 10 * 1024 * 1024, Cum: 1.0},
	})
}

// FBHadoop returns the Facebook Hadoop-cluster distribution: small RPC-like
// flows plus shuffle transfers in the hundreds of kilobytes.
func FBHadoop() *CDF {
	return NewCDF("FB_Hadoop", []CDFPoint{
		{Size: 128, Cum: 0.08},
		{Size: 256, Cum: 0.20},
		{Size: 512, Cum: 0.35},
		{Size: 1 * 1024, Cum: 0.50},
		{Size: 2 * 1024, Cum: 0.63},
		{Size: 4 * 1024, Cum: 0.70},
		{Size: 8 * 1024, Cum: 0.80},
		{Size: 16 * 1024, Cum: 0.85},
		{Size: 32 * 1024, Cum: 0.90},
		{Size: 64 * 1024, Cum: 0.93},
		{Size: 128 * 1024, Cum: 0.96},
		{Size: 256 * 1024, Cum: 0.98},
		{Size: 1024 * 1024, Cum: 0.992},
		{Size: 10 * 1024 * 1024, Cum: 1.0},
	})
}

// WebSearch returns the DCTCP web-search distribution: the heaviest of the
// three, with multi-megabyte flows carrying most bytes.
func WebSearch() *CDF {
	return NewCDF("WebSearch", []CDFPoint{
		{Size: 6 * 1024, Cum: 0.15},
		{Size: 13 * 1024, Cum: 0.20},
		{Size: 19 * 1024, Cum: 0.30},
		{Size: 33 * 1024, Cum: 0.40},
		{Size: 53 * 1024, Cum: 0.53},
		{Size: 133 * 1024, Cum: 0.60},
		{Size: 667 * 1024, Cum: 0.70},
		{Size: 1467 * 1024, Cum: 0.80},
		{Size: 2107 * 1024, Cum: 0.90},
		{Size: 2933 * 1024, Cum: 0.95},
		{Size: 6000 * 1024, Cum: 0.97},
		{Size: 20000 * 1024, Cum: 0.99},
		{Size: 30000 * 1024, Cum: 1.0},
	})
}

// ByName returns a workload CDF by its canonical name ("google",
// "fb_hadoop", "websearch").
func ByName(name string) (*CDF, error) {
	switch name {
	case "google", "Google":
		return Google(), nil
	case "fb_hadoop", "FB_Hadoop", "fbhadoop", "hadoop":
		return FBHadoop(), nil
	case "websearch", "WebSearch", "web_search":
		return WebSearch(), nil
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", name)
	}
}
