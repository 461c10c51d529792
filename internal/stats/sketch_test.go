package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bfc/internal/units"
)

// sketchAccuracyBound is the rank-error budget the accuracy tests (and the
// README) hold the sketch to: a streaming Percentile(p) must lie between the
// exact Percentile(p-delta) and Percentile(p+delta) for delta = 400/sqrt(cap)
// percentile points — ~6.25 points at cap 4096, a few standard deviations
// above the ~100/sqrt(cap) expected rank error of a uniform reservoir, so the
// deterministic fixed-seed sketch clears it with margin on every tested input
// shape.
func sketchAccuracyBound(capacity int) float64 {
	return 400 / math.Sqrt(float64(capacity))
}

// fillBoth feeds the same values to an exact distribution and a sketch.
func fillBoth(capacity int, values []float64) (exact, sketch Distribution) {
	sketch = NewStreamingDistribution(capacity)
	for _, v := range values {
		exact.Add(v)
		sketch.Add(v)
	}
	return exact, sketch
}

// assertSketchClose checks every headline percentile of the sketch against
// the exact distribution under the documented rank-error bound.
func assertSketchClose(t *testing.T, name string, capacity int, values []float64) {
	t.Helper()
	exact, sketch := fillBoth(capacity, values)
	delta := sketchAccuracyBound(capacity)
	for _, p := range []float64{1, 5, 25, 50, 75, 90, 95, 99} {
		got := sketch.Percentile(p)
		lo := exact.Percentile(math.Max(0, p-delta))
		hi := exact.Percentile(math.Min(100, p+delta))
		if got < lo || got > hi {
			t.Errorf("%s: sketch p%v = %v outside exact [p%v, p%v] = [%v, %v]",
				name, p, got, p-delta, p+delta, lo, hi)
		}
	}
	// The extremes, count and mean are exact in streaming mode.
	if sketch.Percentile(0) != exact.Percentile(0) || sketch.Percentile(100) != exact.Percentile(100) {
		t.Errorf("%s: sketch extremes differ from exact", name)
	}
	if sketch.Count() != exact.Count() {
		t.Errorf("%s: count differs: %d vs %d", name, sketch.Count(), exact.Count())
	}
	if math.Abs(sketch.Mean()-exact.Mean()) > 1e-9*math.Abs(exact.Mean())+1e-12 {
		t.Errorf("%s: mean %v, want %v", name, sketch.Mean(), exact.Mean())
	}
	if sketch.StoredSamples() > capacity {
		t.Errorf("%s: sketch holds %d samples, cap %d", name, sketch.StoredSamples(), capacity)
	}
}

// TestSketchAccuracy drives the sketch across random and adversarial input
// shapes: uniform random, sorted ascending/descending (the worst case for
// naive sampling), constant, and heavy-tailed (Pareto-like), at several
// stream lengths relative to the capacity.
func TestSketchAccuracy(t *testing.T) {
	const capacity = 4096
	rng := rand.New(rand.NewSource(99))
	shapes := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = rng.Float64() * 1000
			}
			return out
		},
		"sorted-asc": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i)
			}
			return out
		},
		"sorted-desc": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(n - i)
			}
			return out
		},
		"constant": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = 7.5
			}
			return out
		},
		"heavy-tail": func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				// Pareto(alpha=1.2): frequent small values, rare huge ones.
				out[i] = math.Pow(1-rng.Float64(), -1/1.2)
			}
			return out
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{100, capacity, 4 * capacity, 16 * capacity} {
			assertSketchClose(t, name, capacity, gen(n))
		}
	}
}

// While the stream fits in the reservoir, every query is exact.
func TestSketchExactBelowCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := make([]float64, 1000)
	for i := range values {
		values[i] = rng.NormFloat64()
	}
	exact, sketch := fillBoth(4096, values)
	for _, p := range []float64{0, 10, 50, 90, 99, 100} {
		if got, want := sketch.Percentile(p), exact.Percentile(p); got != want {
			t.Fatalf("p%v = %v, want exact %v while under capacity", p, got, want)
		}
	}
	sketch.ensureSorted()
	exact.ensureSorted()
	if !slices.Equal(sketch.samples, exact.samples) {
		t.Fatal("the reservoir under capacity differs from the exact samples")
	}
}

// The sketch is a pure function of the input sequence: two sketches fed the
// same stream are identical, which is what keeps harness artifacts
// byte-stable across reruns and worker counts.
func TestSketchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	values := make([]float64, 10000)
	for i := range values {
		values[i] = rng.ExpFloat64()
	}
	a := NewStreamingDistribution(256)
	b := NewStreamingDistribution(256)
	for _, v := range values {
		a.Add(v)
		b.Add(v)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("identical streams produced different sketch states")
	}
}

// TestSketchJSONRoundTrip: a decoded sketch answers every query identically
// and keeps accepting samples exactly like the original.
func TestSketchJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := NewStreamingDistribution(128)
	for i := 0; i < 5000; i++ {
		d.Add(rng.Float64() * 100)
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var got Distribution
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Streaming() {
		t.Fatal("decoded distribution lost streaming mode")
	}
	if got.Count() != d.Count() || got.Mean() != d.Mean() {
		t.Fatal("decoded sketch count/mean differ")
	}
	for _, p := range []float64{0, 1, 25, 50, 75, 99, 100} {
		if got.Percentile(p) != d.Percentile(p) {
			t.Fatalf("decoded p%v = %v, want %v", p, got.Percentile(p), d.Percentile(p))
		}
	}
	got.ensureSorted()
	d.ensureSorted()
	if !slices.Equal(got.samples, d.samples) {
		t.Fatal("decoded reservoir differs")
	}
	// Continued adds stay deterministic: original and decoded copies evolve
	// identically because the replacement index depends only on (seed, count).
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 100
		d.Add(v)
		got.Add(v)
	}
	if got.Percentile(50) != d.Percentile(50) || got.Count() != d.Count() {
		t.Fatal("decoded sketch diverged after further samples")
	}
}

func TestSketchJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{"sketch":{"cap":0,"count":0,"samples":[]}}`,
		`{"sketch":{"cap":2,"count":1,"samples":[1,2,3]}}`, // more samples than cap
		`{"sketch":{"cap":8,"count":1,"samples":[1,2]}}`,   // more samples than count
		`{"sketch":{"cap":4,"count":5,"samples":[]}}`,      // non-empty stream, empty reservoir
		`{"sketch":{"cap":4,"count":3,"samples":[1,2]}}`,   // under-filled reservoir
		`{"sketch":{"cap":4,"count":-1,"samples":[]}}`,     // negative count
		// Otherwise valid sketches whose seed is not sketchSeed (0x5DEECE66D).
		`{"sketch":{"cap":4,"seed":0,"count":2,"sum":3,"min":1,"max":2,"samples":[1,2]}}`,
		`{"sketch":{"cap":4,"seed":25214903918,"count":2,"sum":3,"min":1,"max":2,"samples":[1,2]}}`,
	}
	for _, raw := range cases {
		var d Distribution
		if err := json.Unmarshal([]byte(raw), &d); err == nil {
			t.Errorf("corrupt sketch %s decoded without error", raw)
		}
	}
}

// A streaming FCTCollector round-trips through JSON with query results
// preserved (the wire form the harness store persists).
func TestStreamingFCTCollectorJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := NewStreamingFCTCollector(nil, 64)
	for i := 0; i < 3000; i++ {
		size := units.Bytes(100 + rng.Intn(2_000_000))
		fct := units.Time(10+rng.Intn(100)) * units.Microsecond
		c.Record(size, fct, 10*units.Microsecond)
	}
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got := &FCTCollector{}
	if err := json.Unmarshal(blob, got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != c.Count() {
		t.Fatalf("count = %d, want %d", got.Count(), c.Count())
	}
	if got.OverallPercentile(99) != c.OverallPercentile(99) {
		t.Fatalf("p99 = %v, want %v", got.OverallPercentile(99), c.OverallPercentile(99))
	}
	want := c.TailSlowdownBySize()
	gotBySize := got.TailSlowdownBySize()
	for k, v := range want {
		if gotBySize[k] != v {
			t.Fatalf("bucket %s = %v, want %v", k, gotBySize[k], v)
		}
	}
	if got.StoredSamples() != c.StoredSamples() {
		t.Fatalf("stored samples = %d, want %d", got.StoredSamples(), c.StoredSamples())
	}
}
