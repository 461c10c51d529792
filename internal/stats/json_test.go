package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"bfc/internal/units"
)

func TestDistributionJSONRoundTrip(t *testing.T) {
	var d Distribution
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	b, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var got Distribution
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != d.Count() || got.Mean() != d.Mean() {
		t.Fatalf("round trip changed count/mean: %d/%v vs %d/%v", got.Count(), got.Mean(), d.Count(), d.Mean())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got.Percentile(p) != d.Percentile(p) {
			t.Fatalf("p%v = %v, want %v", p, got.Percentile(p), d.Percentile(p))
		}
	}
}

func TestDistributionJSONEmpty(t *testing.T) {
	var d Distribution
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Fatalf("empty distribution = %s, want []", b)
	}
	var got Distribution
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatalf("empty round trip has %d samples", got.Count())
	}
}

func TestFCTCollectorJSONRoundTrip(t *testing.T) {
	c := NewFCTCollector(nil)
	c.Record(512, 20*units.Microsecond, 10*units.Microsecond)
	c.Record(2*units.KB, 30*units.Microsecond, 10*units.Microsecond)
	c.Record(2*units.MB, 50*units.Microsecond, 10*units.Microsecond)

	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got := &FCTCollector{}
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatal(err)
	}
	if got.Count() != c.Count() {
		t.Fatalf("count = %d, want %d", got.Count(), c.Count())
	}
	if math.Abs(got.OverallPercentile(99)-c.OverallPercentile(99)) > 1e-12 {
		t.Fatalf("p99 = %v, want %v", got.OverallPercentile(99), c.OverallPercentile(99))
	}
	want := c.TailSlowdownBySize()
	gotBySize := got.TailSlowdownBySize()
	if len(gotBySize) != len(want) {
		t.Fatalf("bucket map = %v, want %v", gotBySize, want)
	}
	for k, v := range want {
		if gotBySize[k] != v {
			t.Fatalf("bucket %s = %v, want %v", k, gotBySize[k], v)
		}
	}
	// A decoded collector must stay usable for new samples.
	got.Record(4*units.KB, 40*units.Microsecond, 10*units.Microsecond)
	if got.Count() != c.Count()+1 {
		t.Fatal("decoded collector did not accept new samples")
	}
}

func TestFCTCollectorJSONRejectsMismatchedBuckets(t *testing.T) {
	raw := []byte(`{"buckets":[{"Lo":0,"Hi":1000,"Label":"x"}],"per_size":[[],[]],"all":[]}`)
	var c FCTCollector
	if err := json.Unmarshal(raw, &c); err == nil {
		t.Fatal("expected error for per_size/buckets length mismatch")
	}
}

// An FCT collector needs at least one bucket: Record attributes every flow to
// one. An empty list is refused on the wire and by the constructor, instead of
// panicking with an index out of range on the first Record.
func TestFCTCollectorRejectsEmptyBuckets(t *testing.T) {
	raw := []byte(`{"buckets":[],"per_size":[],"all":[]}`)
	var c FCTCollector
	if err := json.Unmarshal(raw, &c); err == nil {
		t.Fatal("expected error for an empty bucket list")
	}
	assertPanics(t, func() { NewFCTCollector([]SizeBucket{}) })
	assertPanics(t, func() { NewStreamingFCTCollector([]SizeBucket{}, 8) })
}

// FuzzFCTCollectorJSON feeds arbitrary bytes to the collector's decoder, the
// wire form a fleet coordinator reads from worker responses and bfcctl from
// the daemon. Bytes either fail to decode or yield a collector that answers
// every query, re-encodes to a fixed point and accepts another flow.
func FuzzFCTCollectorJSON(f *testing.F) {
	exact := NewFCTCollector(nil)
	streaming := NewStreamingFCTCollector(nil, 4)
	for i := 1; i <= 24; i++ {
		size := units.Bytes(i*i) * units.KB
		fct := units.Time(10+i%7) * units.Microsecond
		exact.Record(size, fct, 10*units.Microsecond)
		streaming.Record(size, fct, 10*units.Microsecond)
	}
	for _, c := range []*FCTCollector{exact, streaming} {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"buckets":[],"per_size":[],"all":[]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var c FCTCollector
		if json.Unmarshal(b, &c) != nil {
			return
		}
		first, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("encoding a decoded collector: %v", err)
		}
		var again FCTCollector
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		second, err := json.Marshal(&again)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", first, second)
		}
		c.Count()
		for _, p := range []float64{0, 50, 100} {
			c.OverallPercentile(p)
		}
		c.TailSlowdownBySize()
		c.Rows()
		c.StoredSamples()
		c.Record(2*units.KB, 30*units.Microsecond, 10*units.Microsecond)
	})
}
