package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// JSON round-tripping for the stats types embedded in sim.Result, so that the
// experiment harness can persist completed runs as JSONL artifacts and load
// them back with every percentile/CDF query still answerable.

// sketchJSON is the wire form of a streaming distribution. It captures the
// complete reservoir state, so a decoded distribution answers every query
// identically to the original and keeps accepting samples deterministically.
// Seed is always sketchSeed; it stays on the wire so stored artifacts keep
// their bytes, and a document carrying any other seed is refused.
type sketchJSON struct {
	Cap     int       `json:"cap"`
	Seed    uint64    `json:"seed"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// streamingJSON wraps the sketch so the two distribution modes are
// distinguishable on the wire: exact mode is a bare sample array, streaming
// mode an object.
type streamingJSON struct {
	Sketch sketchJSON `json:"sketch"`
}

// MarshalJSON encodes an exact Distribution as its raw sample array (emitted
// in their current order — insertion order until the first percentile query
// sorts them; both orders decode to an equivalent distribution) and a
// streaming Distribution as a {"sketch": ...} object holding the full
// reservoir state. The bytes are encoding/json's for the same values.
func (d Distribution) MarshalJSON() ([]byte, error) {
	w := JSONWriter{buf: make([]byte, 0, d.jsonBound())}
	w.Distribution("", &d)
	return w.bytes()
}

// maxFloatJSON bounds the bytes one float64 takes in an array, its comma
// included: the longest shortest-round-trip form is 24 bytes
// (-2.2250738585072014e-308).
const maxFloatJSON = 25

// jsonBound bounds the length of d's wire form, so one allocation holds it:
// 256 bytes cover a sketch's keys and scalars, or a collector's keys around
// the distribution.
func (d *Distribution) jsonBound() int { return 256 + maxFloatJSON*len(d.samples) }

// jsonChunk is the buffer of a JSONWriter with a sink: it amortizes the
// sink's calls and is small against any run's statistics.
const jsonChunk = 4 << 10

// JSONWriter writes JSON text through one buffer. With a sink
// (NewJSONWriter) the buffer is a fixed jsonChunk bytes, handed to the sink
// whenever the next piece might not fit, so writing statistics of any size
// allocates nothing beyond it. Without one (MarshalJSON) the buffer, sized
// by jsonBound, holds the whole text. Each method writes prefix, raw JSON
// text such as a key and its separator, and then its value. The first
// error, a value JSON cannot hold or the sink's, sticks: Flush returns it.
type JSONWriter struct {
	sink io.Writer
	buf  []byte
	err  error
}

// NewJSONWriter returns a writer that streams to sink.
func NewJSONWriter(sink io.Writer) JSONWriter {
	return JSONWriter{sink: sink, buf: make([]byte, 0, jsonChunk)}
}

// Flush hands the sink what the buffer holds and returns the first error.
func (w *JSONWriter) Flush() error {
	w.flush()
	return w.err
}

// bytes returns the text a writer without a sink holds.
func (w *JSONWriter) bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

func (w *JSONWriter) flush() {
	if w.sink == nil {
		return
	}
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.sink.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// room makes n bytes free, flushing if fewer are.
func (w *JSONWriter) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
}

// Raw writes text as it is: keys, separators, brackets. The buffer grows
// only for text longer than itself.
func (w *JSONWriter) Raw(text string) {
	w.room(len(text))
	w.buf = append(w.buf, text...)
}

// Int writes prefix and v.
func (w *JSONWriter) Int(prefix string, v int64) {
	w.Raw(prefix)
	w.room(20)
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Uint writes prefix and v.
func (w *JSONWriter) Uint(prefix string, v uint64) {
	w.Raw(prefix)
	w.room(20)
	w.buf = strconv.AppendUint(w.buf, v, 10)
}

// Float writes prefix and v as encoding/json writes a float64.
func (w *JSONWriter) Float(prefix string, v float64) {
	w.Raw(prefix)
	w.room(maxFloatJSON)
	w.float(v)
}

// Marshal writes prefix and json.Marshal's encoding of v.
func (w *JSONWriter) Marshal(prefix string, v any) {
	w.Raw(prefix)
	b, err := json.Marshal(v)
	switch {
	case err != nil:
		w.fail(err)
	case w.sink != nil && len(b) > cap(w.buf):
		w.flush()
		if w.err == nil {
			_, w.err = w.sink.Write(b)
		}
	default:
		w.room(len(b))
		w.buf = append(w.buf, b...)
	}
}

// fail records err unless an earlier error stands.
func (w *JSONWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// float appends v as encoding/json writes a float64: the shortest form that
// reads back as v, in 'f' notation unless 0 < |v| < 1e-6 or |v| >= 1e21,
// which take 'e' notation with a one-digit negative exponent's zero dropped
// (1e-07 is written 1e-7). NaN and ±Inf have no JSON form. The caller makes
// room for maxFloatJSON bytes.
func (w *JSONWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.fail(fmt.Errorf("stats: unsupported value %v: JSON has no NaN or infinity", v))
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.buf, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.buf = b
}

// floats writes prefix and vs as a JSON array; nil is the empty array.
func (w *JSONWriter) floats(prefix string, vs []float64) {
	w.Raw(prefix)
	w.Raw("[")
	for i, v := range vs {
		if w.err != nil {
			return
		}
		w.room(maxFloatJSON)
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.float(v)
	}
	w.Raw("]")
}

// Distribution writes prefix and d's wire form (see MarshalJSON).
func (w *JSONWriter) Distribution(prefix string, d *Distribution) {
	if !d.Streaming() {
		w.floats(prefix, d.samples)
		return
	}
	w.Raw(prefix)
	w.Int(`{"sketch":{"cap":`, int64(d.cap))
	w.Uint(`,"seed":`, sketchSeed)
	w.Int(`,"count":`, d.count)
	w.Float(`,"sum":`, d.sum)
	w.Float(`,"min":`, d.min)
	w.Float(`,"max":`, d.max)
	w.floats(`,"samples":`, d.samples)
	w.Raw("}}")
}

// UnmarshalJSON decodes either wire form produced by MarshalJSON, replacing
// any existing state.
func (d *Distribution) UnmarshalJSON(b []byte) error {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '{':
			var w streamingJSON
			if err := json.Unmarshal(b, &w); err != nil {
				return fmt.Errorf("stats: decoding streaming distribution: %w", err)
			}
			s := w.Sketch
			if s.Cap <= 0 {
				return fmt.Errorf("stats: streaming distribution with non-positive capacity %d", s.Cap)
			}
			if s.Seed != sketchSeed {
				return fmt.Errorf("stats: streaming distribution with seed %#x, want %#x", s.Seed, sketchSeed)
			}
			// Add maintains len(samples) == min(count, cap) exactly; any
			// other combination is corrupt and would panic later queries.
			if s.Count < 0 || int64(len(s.Samples)) != min(s.Count, int64(s.Cap)) {
				return fmt.Errorf("stats: streaming distribution holds %d samples for cap %d, count %d",
					len(s.Samples), s.Cap, s.Count)
			}
			*d = Distribution{
				cap: s.Cap, count: s.Count,
				sum: s.Sum, min: s.Min, max: s.Max, samples: s.Samples,
			}
			return nil
		}
		break
	}
	var samples []float64
	if err := json.Unmarshal(b, &samples); err != nil {
		return fmt.Errorf("stats: decoding distribution: %w", err)
	}
	*d = Distribution{}
	for _, v := range samples {
		d.Add(v)
	}
	return nil
}

// fctCollectorJSON is the exported wire form of FCTCollector, which
// MarshalJSON writes field by field and UnmarshalJSON reads.
type fctCollectorJSON struct {
	Buckets []SizeBucket   `json:"buckets"`
	PerSize []Distribution `json:"per_size"`
	All     Distribution   `json:"all"`
}

// MarshalJSON encodes the collector's buckets and per-bucket slowdown
// distributions in one buffer sized for them all. The bucket list, a few
// labelled bounds, is the one part encoding/json writes.
func (c *FCTCollector) MarshalJSON() ([]byte, error) {
	w := JSONWriter{buf: make([]byte, 0, c.jsonBound())}
	w.FCTCollector("", c)
	return w.bytes()
}

// jsonBound bounds the length of c's wire form. A bucket takes at most 65
// bytes besides its label, whose bytes encoding/json escapes to at most six
// each.
func (c *FCTCollector) jsonBound() int {
	n := c.all.jsonBound()
	for i := range c.perSize {
		n += c.perSize[i].jsonBound()
	}
	for _, b := range c.buckets {
		n += 65 + 6*len(b.Label)
	}
	return n
}

// FCTCollector writes prefix and c's wire form (see MarshalJSON); a nil c is
// null.
func (w *JSONWriter) FCTCollector(prefix string, c *FCTCollector) {
	w.Raw(prefix)
	if c == nil {
		w.Raw("null")
		return
	}
	w.Marshal(`{"buckets":`, &c.buckets)
	if c.perSize == nil {
		w.Raw(`,"per_size":null`)
	} else {
		w.Raw(`,"per_size":[`)
		sep := ""
		for i := range c.perSize {
			w.Distribution(sep, &c.perSize[i])
			sep = ","
		}
		w.Raw("]")
	}
	w.Distribution(`,"all":`, &c.all)
	w.Raw("}")
}

// UnmarshalJSON decodes a collector produced by MarshalJSON.
func (c *FCTCollector) UnmarshalJSON(b []byte) error {
	var w fctCollectorJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("stats: decoding FCT collector: %w", err)
	}
	if w.Buckets == nil {
		w.Buckets = DefaultSizeBuckets()
	}
	if len(w.Buckets) == 0 {
		return fmt.Errorf("stats: FCT collector with no size buckets")
	}
	if len(w.PerSize) != len(w.Buckets) {
		return fmt.Errorf("stats: FCT collector has %d per-size distributions for %d buckets",
			len(w.PerSize), len(w.Buckets))
	}
	c.buckets = w.Buckets
	c.perSize = w.PerSize
	c.all = w.All
	return nil
}
