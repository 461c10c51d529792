package stats

import (
	"encoding/json"
	"fmt"
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
// reservoir state.
func (d Distribution) MarshalJSON() ([]byte, error) {
	samples := d.samples
	if samples == nil {
		samples = []float64{}
	}
	if !d.Streaming() {
		return json.Marshal(samples)
	}
	return json.Marshal(streamingJSON{Sketch: sketchJSON{
		Cap: d.cap, Seed: sketchSeed, Count: d.count,
		Sum: d.sum, Min: d.min, Max: d.max, Samples: samples,
	}})
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

// fctCollectorJSON is the exported wire form of FCTCollector.
type fctCollectorJSON struct {
	Buckets []SizeBucket   `json:"buckets"`
	PerSize []Distribution `json:"per_size"`
	All     Distribution   `json:"all"`
}

// MarshalJSON encodes the collector's buckets and per-bucket slowdown
// distributions.
func (c *FCTCollector) MarshalJSON() ([]byte, error) {
	return json.Marshal(fctCollectorJSON{Buckets: c.buckets, PerSize: c.perSize, All: c.all})
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
