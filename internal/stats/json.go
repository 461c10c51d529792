package stats

import (
	"encoding/json"
	"fmt"
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
	return d.appendJSON(make([]byte, 0, d.jsonBound()))
}

// maxFloatJSON bounds the bytes one float64 takes in an array, its comma
// included: the longest shortest-round-trip form is 24 bytes
// (-2.2250738585072014e-308).
const maxFloatJSON = 25

// jsonBound bounds the length of d's wire form, so one allocation holds it:
// 256 bytes cover a sketch's keys and scalars.
func (d *Distribution) jsonBound() int { return 256 + maxFloatJSON*len(d.samples) }

// appendJSON appends d's wire form (see MarshalJSON) to b in one pass.
func (d *Distribution) appendJSON(b []byte) ([]byte, error) {
	if !d.Streaming() {
		return appendFloats(b, d.samples)
	}
	b = append(b, `{"sketch":{"cap":`...)
	b = strconv.AppendInt(b, int64(d.cap), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, sketchSeed, 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, d.count, 10)
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"sum":`, d.sum}, {`,"min":`, d.min}, {`,"max":`, d.max}} {
		if b, err = appendFloat(append(b, f.key...), f.v); err != nil {
			return nil, err
		}
	}
	if b, err = appendFloats(append(b, `,"samples":`...), d.samples); err != nil {
		return nil, err
	}
	return append(b, "}}"...), nil
}

// appendFloats appends vs as a JSON array; nil is the empty array.
func appendFloats(b []byte, vs []float64) ([]byte, error) {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends v as encoding/json writes a float64: the shortest form
// that reads back as v, in 'f' notation unless 0 < |v| < 1e-6 or |v| >= 1e21,
// which take 'e' notation with a one-digit negative exponent's zero dropped
// (1e-07 is written 1e-7). NaN and ±Inf have no JSON form.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("stats: unsupported value %v: JSON has no NaN or infinity", v)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
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
	buckets, err := json.Marshal(c.buckets)
	if err != nil {
		return nil, err
	}
	size := len(buckets) + c.all.jsonBound()
	for i := range c.perSize {
		size += c.perSize[i].jsonBound()
	}
	b := append(make([]byte, 0, size), `{"buckets":`...)
	b = append(append(b, buckets...), `,"per_size":`...)
	if c.perSize == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range c.perSize {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = c.perSize[i].appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if b, err = c.all.appendJSON(append(b, `,"all":`...)); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
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
