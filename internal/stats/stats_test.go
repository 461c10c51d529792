package stats

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"bfc/internal/units"
)

func TestDistributionBasics(t *testing.T) {
	var d Distribution
	if d.Count() != 0 || d.Mean() != 0 || d.Percentile(100) != 0 || d.Percentile(99) != 0 {
		t.Fatal("empty distribution should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.Count() != 5 {
		t.Fatalf("count = %d", d.Count())
	}
	if d.Mean() != 3 {
		t.Fatalf("mean = %v, want 3", d.Mean())
	}
	if d.Percentile(0) != 1 || d.Percentile(100) != 5 {
		t.Fatal("percentile extremes wrong")
	}
	if p50 := d.Percentile(50); p50 != 3 {
		t.Fatalf("p50 = %v, want 3", p50)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var d Distribution
	d.Add(0)
	d.Add(10)
	if p := d.Percentile(50); p != 5 {
		t.Fatalf("p50 = %v, want 5 (interpolated)", p)
	}
	if p := d.Percentile(90); p != 9 {
		t.Fatalf("p90 = %v, want 9", p)
	}
	var single Distribution
	single.Add(7)
	if single.Percentile(99) != 7 {
		t.Fatal("single-sample percentile should return the sample")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	var d Distribution
	d.Add(1)
	assertPanics(t, func() { d.Percentile(-1) })
	assertPanics(t, func() { d.Percentile(101) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestAddAfterPercentile(t *testing.T) {
	var d Distribution
	d.Add(10)
	_ = d.Percentile(50)
	d.Add(1)
	if d.Percentile(0) != 1 {
		t.Fatal("distribution must re-sort after new samples")
	}
}

func TestFCTCollector(t *testing.T) {
	c := NewFCTCollector()
	// A 500-byte flow with FCT twice its ideal.
	c.Record(500, 20*units.Microsecond, 10*units.Microsecond)
	// A 50KB flow at 5x slowdown.
	c.Record(50*units.KB, 50*units.Microsecond, 10*units.Microsecond)
	// A 10MB flow (falls beyond the last bucket Hi boundary handling).
	c.Record(10*units.MB, 100*units.Microsecond, 50*units.Microsecond)
	if c.Count() != 3 {
		t.Fatalf("count = %d", c.Count())
	}
	rows := c.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	bySize := c.TailSlowdownBySize()
	if bySize["<1KB"] != 2 {
		t.Fatalf("<1KB p99 = %v, want 2", bySize["<1KB"])
	}
	if bySize["30-100KB"] != 5 {
		t.Fatalf("30-100KB p99 = %v, want 5", bySize["30-100KB"])
	}
	if bySize[">1MB"] != 2 {
		t.Fatalf(">1MB p99 = %v, want 2", bySize[">1MB"])
	}
	if c.OverallPercentile(100) != 5 {
		t.Fatal("overall max slowdown should be 5")
	}
}

func TestFCTSlowdownClamped(t *testing.T) {
	c := NewFCTCollector()
	// FCT slightly below ideal (possible due to the store-and-forward
	// approximation in the ideal) clamps to 1.
	c.Record(1000, 9*units.Microsecond, 10*units.Microsecond)
	if got := c.OverallPercentile(50); got != 1 {
		t.Fatalf("slowdown = %v, want clamped to 1", got)
	}
	assertPanics(t, func() { c.Record(1000, 0, 10) })
	assertPanics(t, func() { c.Record(1000, 10, 0) })
}

func TestDefaultSizeBucketsCoverRange(t *testing.T) {
	buckets := DefaultSizeBuckets()
	if buckets[0].Lo != 0 {
		t.Fatal("first bucket must start at 0")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Lo != buckets[i-1].Hi {
			t.Fatalf("bucket %d not contiguous", i)
		}
	}
}

// Property: Percentile agrees with a direct computation on the sorted slice
// within interpolation, is monotone in p, and bounded by min/max.
func TestPercentileProperties(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		var d Distribution
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
			d.Add(vals[i])
		}
		sort.Float64s(vals)
		prev := -1.0
		for _, p := range []float64{0, 25, 50, 75, 90, 99, 100} {
			got := d.Percentile(p)
			if got < vals[0]-1e-9 || got > vals[count-1]+1e-9 {
				return false
			}
			if got < prev-1e-9 {
				return false
			}
			prev = got
		}
		return d.Percentile(0) == vals[0] && d.Percentile(100) == vals[count-1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A collector reserved for the flows a run offers records their completions
// without growing a slice, each distribution sized to its own count; a
// sketch is reserved no further than its capacity.
func TestReserveSizesEveryDistribution(t *testing.T) {
	sizes := []units.Bytes{500, 2 * units.KB, 2 * units.KB, 50 * units.KB, 10 * units.MB}
	c := NewFCTCollector()
	// AllocsPerRun records the flows twice: once to warm up, once measured.
	c.Reserve(slices.Values(slices.Concat(sizes, sizes)))
	if allocs := testing.AllocsPerRun(1, func() {
		for _, size := range sizes {
			c.Record(size, 20*units.Microsecond, 10*units.Microsecond)
		}
	}); allocs != 0 {
		t.Fatalf("recording the reserved flows allocated %v times", allocs)
	}
	if got := cap(c.all.samples); got != c.Count() {
		t.Fatalf("overall distribution reserved %d samples for %d flows", got, c.Count())
	}
	for i := range c.perSize {
		if d := &c.perSize[i]; cap(d.samples) != d.Count() {
			t.Fatalf("bucket %s reserved %d samples for %d flows", c.buckets[i].Label, cap(d.samples), d.Count())
		}
	}

	s := Distribution{cap: 4}
	s.Add(1)
	s.Reserve(100)
	if got := cap(s.samples); got != 4 {
		t.Fatalf("a sketch of capacity 4 reserved room for %d samples", got)
	}
}
