package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// TestResultDigestIsEncodingJSONs holds ResultDigest, which streams the
// statistics' own one-pass encoders into the hash, to the SHA-256 of
// encoding/json's encoding of the same Result with no stats encoder in it
// (plainResult), on T2 runs under BFC, DCQCN and streaming statistics: the
// goldens pin the digests, this pins the bytes behind them to encoding/json's.
func TestResultDigestIsEncodingJSONs(t *testing.T) {
	topo := topology.NewT2()
	flows := goldenFlows(t, topo)
	for _, c := range []struct {
		name      string
		scheme    Scheme
		streaming bool
	}{{"BFC", SchemeBFC, false}, {"DCQCN", SchemeDCQCN, false}, {"BFC/streaming", SchemeBFC, true}} {
		t.Run(c.name, func(t *testing.T) {
			copies := make([]*packet.Flow, len(flows))
			for i, f := range flows {
				copies[i] = new(packet.Flow)
				*copies[i] = *f
			}
			opts := DefaultOptions(c.scheme, topo)
			opts.Duration, opts.Drain, opts.Seed = 150*units.Microsecond, 800*units.Microsecond, 7
			opts.StreamingStats = c.streaming
			res, err := Run(opts, copies)
			if err != nil {
				t.Fatal(err)
			}
			if res.FCT.Count() == 0 || res.BufferOccupancy.Count() == 0 {
				t.Fatalf("the run recorded %d completions and %d buffer samples", res.FCT.Count(), res.BufferOccupancy.Count())
			}
			got, err := ResultDigest(res)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(plainResult(t, res))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if want := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("ResultDigest %s, SHA-256 of encoding/json's encoding %s", got, want)
			}
		})
	}
}

// plainResult returns res, without its Telemetry, as a value of a struct type
// built for it: Result's fields in order, under their names and tags, but
// each statistic replaced by the plain values its wire form decodes to (a
// bucket list, sample arrays, sketch objects), so that json.Marshal encodes
// it without calling one of package stats' encoders.
func plainResult(t *testing.T, res *Result) any {
	t.Helper()
	v := reflect.ValueOf(res).Elem()
	fields := make([]reflect.StructField, v.NumField())
	vals := make([]reflect.Value, v.NumField())
	for i := range fields {
		f, x := v.Type().Field(i), v.Field(i)
		switch s := x.Interface().(type) {
		case *stats.FCTCollector:
			var w struct {
				Buckets []stats.SizeBucket `json:"buckets"`
				PerSize []json.RawMessage  `json:"per_size"`
				All     json.RawMessage    `json:"all"`
			}
			raw, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &w); err != nil {
				t.Fatal(err)
			}
			plain := struct {
				Buckets []stats.SizeBucket `json:"buckets"`
				PerSize []any              `json:"per_size"`
				All     any                `json:"all"`
			}{Buckets: w.Buckets, All: plainDistribution(t, w.All)}
			for _, d := range w.PerSize {
				plain.PerSize = append(plain.PerSize, plainDistribution(t, d))
			}
			x = reflect.ValueOf(&plain)
		case stats.Distribution:
			raw, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			x = reflect.ValueOf(plainDistribution(t, raw))
		}
		if f.Name == "Telemetry" {
			x = reflect.Zero(f.Type)
		}
		fields[i] = reflect.StructField{Name: f.Name, Type: x.Type(), Tag: f.Tag}
		vals[i] = x
	}
	w := reflect.New(reflect.StructOf(fields)).Elem()
	for i, x := range vals {
		w.Field(i).Set(x)
	}
	return w.Interface()
}

// plainDistribution decodes a distribution's wire form into encoding/json's
// own types: a sample array, or a sketch object.
func plainDistribution(t *testing.T, raw []byte) any {
	t.Helper()
	if raw[0] != '{' {
		var samples []float64
		if err := json.Unmarshal(raw, &samples); err != nil {
			t.Fatal(err)
		}
		return samples
	}
	var sk struct {
		Sketch struct {
			Cap     int       `json:"cap"`
			Seed    uint64    `json:"seed"`
			Count   int64     `json:"count"`
			Sum     float64   `json:"sum"`
			Min     float64   `json:"min"`
			Max     float64   `json:"max"`
			Samples []float64 `json:"samples"`
		} `json:"sketch"`
	}
	if err := json.Unmarshal(raw, &sk); err != nil {
		t.Fatal(err)
	}
	return sk
}
