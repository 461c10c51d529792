package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
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
	c := NewFCTCollector()
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
// one. The constructors always use DefaultSizeBuckets; an empty list on the
// wire is refused instead of panicking with an index out of range on the
// first Record.
func TestFCTCollectorRejectsEmptyBuckets(t *testing.T) {
	raw := []byte(`{"buckets":[],"per_size":[],"all":[]}`)
	var c FCTCollector
	if err := json.Unmarshal(raw, &c); err == nil {
		t.Fatal("expected error for an empty bucket list")
	}
}

// FuzzFCTCollectorJSON feeds arbitrary bytes to the collector's decoder, the
// wire form a fleet coordinator reads from worker responses and bfcctl from
// the daemon. Bytes either fail to decode or yield a collector that answers
// every query, re-encodes to a fixed point and accepts another flow.
func FuzzFCTCollectorJSON(f *testing.F) {
	exact := NewFCTCollector()
	for i := 1; i <= 24; i++ {
		exact.Record(units.Bytes(i*i)*units.KB, units.Time(10+i%7)*units.Microsecond, 10*units.Microsecond)
	}
	b, err := json.Marshal(exact)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	// The same 24 flows in sketches of capacity 4, so the overall sketch and
	// three per-size ones are saturated: a stored sketch states its capacity,
	// which the decoder keeps. Without "buckets" the collector takes
	// DefaultSizeBuckets.
	f.Add([]byte(`{"per_size":[
		{"sketch":{"cap":4,"seed":25214903917,"count":1,"sum":1.1,"min":1.1,"max":1.1,"samples":[1.1]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":0,"sum":0,"min":0,"max":0,"samples":[]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":2,"sum":2.5,"min":1.2,"max":1.3,"samples":[1.2,1.3]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":2,"sum":2.9,"min":1.4,"max":1.5,"samples":[1.4,1.5]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":5,"sum":6.2,"min":1,"max":1.6,"samples":[1.6,1,1.1,1.3]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":7,"sum":9.1,"min":1,"max":1.6,"samples":[1.4,1.2,1.3,1.1]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":7,"sum":9.1,"min":1,"max":1.6,"samples":[1.4,1.2,1.3,1.1]}},
		{"sketch":{"cap":4,"seed":25214903917,"count":0,"sum":0,"min":0,"max":0,"samples":[]}}],
		"all":{"sketch":{"cap":4,"seed":25214903917,"count":24,"sum":30.900000000000002,"min":1,"max":1.6,"samples":[1.6,1.6,1,1.5]}}}`))
	f.Add([]byte(`{"buckets":[],"per_size":[],"all":[]}`))
	// More samples than one of a streaming writer's buffers holds, so its
	// flushes land inside the sample arrays.
	large := NewFCTCollector()
	for i := 1; i <= 600; i++ {
		large.Record(units.Bytes(i*i*37%(2<<20)+1), units.Time(10+i%13)*units.Microsecond, 10*units.Microsecond)
	}
	if b, err = json.Marshal(large); err != nil {
		f.Fatal(err)
	}
	f.Add(b)
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
		got, err := streamed(func(w *JSONWriter) { w.FCTCollector("", &c) })
		sameBytes(t, "streamed collector", got, err, first, nil)
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

// plainJSON returns the values d's wire form holds as types encoding/json
// encodes by itself: the sample array, or the sketch object.
func plainJSON(d *Distribution) any {
	samples := d.samples
	if samples == nil {
		samples = []float64{}
	}
	if !d.Streaming() {
		return samples
	}
	return streamingJSON{Sketch: sketchJSON{
		Cap: d.cap, Seed: sketchSeed, Count: d.count,
		Sum: d.sum, Min: d.min, Max: d.max, Samples: samples,
	}}
}

// plainCollectorJSON is plainJSON for a collector.
func plainCollectorJSON(c *FCTCollector) any {
	w := struct {
		Buckets []SizeBucket `json:"buckets"`
		PerSize []any        `json:"per_size"`
		All     any          `json:"all"`
	}{Buckets: c.buckets, All: plainJSON(&c.all)}
	if c.perSize != nil {
		w.PerSize = make([]any, len(c.perSize))
		for i := range c.perSize {
			w.PerSize[i] = plainJSON(&c.perSize[i])
		}
	}
	return w
}

// streamed returns the bytes write has a JSONWriter stream into a buffer.
func streamed(write func(*JSONWriter)) ([]byte, error) {
	var b bytes.Buffer
	w := NewJSONWriter(&b)
	write(&w)
	err := w.Flush()
	return b.Bytes(), err
}

// sameBytes fails t unless got and want are the same bytes, or both
// encodings failed.
func sameBytes(t *testing.T, what string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// sameAsEncodingJSON fails t unless got and err, an encoding of the values
// plain holds, are encoding/json's bytes for them, or both encodings fail.
func sameAsEncodingJSON(t *testing.T, what string, got []byte, err error, plain any) {
	t.Helper()
	want, wantErr := json.Marshal(plain)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: error %v, encoding/json's %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// floatBits packs values as the fuzz input FuzzDistributionJSON reads.
func floatBits(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzDistributionJSON holds the one-pass encoding of distributions and FCT
// collectors to encoding/json's bytes for the same values, over arbitrary
// float64 bit patterns: each 8 bytes of raw are one sample. capacity 0 is
// exact mode, any other a reservoir of that capacity, so a few samples reach
// the sketch's replacement path. A JSONWriter streaming the same values,
// after capacity bytes of white space that move its flushes, must write
// MarshalJSON's bytes; the seeds of 600 and 1 200 samples fill several of
// its buffers.
func FuzzDistributionJSON(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{}, uint8(4))
	edges := floatBits(0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, 1e-7, 9.99e-7,
		1e-6, 1.5, 123456789, 1e20, 1e21, -1e21, 1.7976931348623157e308)
	f.Add(edges, uint8(0))
	f.Add(edges, uint8(3))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(floatBits(1, v, 2), uint8(0))
		f.Add(floatBits(1, v, 2), uint8(8))
	}
	var many []float64
	for i := range 600 {
		many = append(many, float64(i*i)*1.0000001e-9, -float64(i)/7)
	}
	f.Add(floatBits(many[:600]...), uint8(0))
	f.Add(floatBits(many...), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, capacity uint8) {
		d := Distribution{cap: int(capacity)}
		c := NewFCTCollector()
		c.all.cap = int(capacity)
		for i := range c.perSize {
			c.perSize[i].cap = int(capacity)
		}
		for i := 0; i+8 <= len(raw); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			d.Add(v)
			c.all.Add(v)
			c.perSize[(i/8)%len(c.perSize)].Add(v)
		}
		pad := strings.Repeat(" ", int(capacity))
		got, err := d.MarshalJSON()
		sameAsEncodingJSON(t, "distribution", got, err, plainJSON(&d))
		s, serr := streamed(func(w *JSONWriter) { w.Distribution(pad, &d) })
		sameBytes(t, "streamed distribution", s, serr, append([]byte(pad), got...), err)
		got, err = c.MarshalJSON()
		sameAsEncodingJSON(t, "collector", got, err, plainCollectorJSON(c))
		s, serr = streamed(func(w *JSONWriter) { w.FCTCollector(pad, c) })
		sameBytes(t, "streamed collector", s, serr, append([]byte(pad), got...), err)
		var zero FCTCollector
		got, err = zero.MarshalJSON()
		sameAsEncodingJSON(t, "zero collector", got, err, plainCollectorJSON(&zero))
	})
}
