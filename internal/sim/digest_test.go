package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// TestResultDigestIsEncodingJSONs holds ResultDigest, which streams the
// Result's fields and the statistics' own encoders into the hash, to the
// SHA-256 of encoding/json's encoding of the same Result with no stats
// encoder in it (plainResult), on T2 runs: BFC, DCQCN, HPCC, streaming
// statistics with the Telemetry series the digest leaves out, a scenario
// (whose phases carry collectors of their own), PFC pausing links (the pause
// map's "->" keys, which encoding/json escapes), and runs whose background
// or all collectors stay empty, one of them set to nil. The goldens pin the
// digests; this pins the bytes behind them to encoding/json's.
func TestResultDigestIsEncodingJSONs(t *testing.T) {
	for _, c := range []struct {
		name   string
		scheme Scheme
		opts   func(*Options)
		flows  func(*packet.Flow) bool
		check  func(*Result) bool
		edit   func(*Result)
	}{
		{name: "BFC", scheme: SchemeBFC},
		{name: "DCQCN", scheme: SchemeDCQCN},
		{name: "HPCC", scheme: SchemeHPCC},
		{name: "BFC/streaming", scheme: SchemeBFC, opts: func(o *Options) { o.StreamingStats, o.SampleSeries = true, true },
			check: func(r *Result) bool { return r.FCT.Count() > 0 && r.Telemetry != nil }},
		{name: "BFC/scenario", scheme: SchemeBFC, opts: func(o *Options) { o.Scenario = linkFlapSpec() },
			check: func(r *Result) bool { return r.Scenario != nil && r.Scenario.Phases[0].FCT.Count() > 0 }},
		{name: "DCQCN/pfc", scheme: SchemeDCQCN, opts: func(o *Options) { o.SwitchBuffer = 300 * units.KB },
			check: func(r *Result) bool {
				for k, v := range r.PauseTimeFraction {
					if strings.Contains(k, "->") && v > 0 {
						return true
					}
				}
				return false
			}},
		{name: "BFC/incast-only", scheme: SchemeBFC, flows: func(f *packet.Flow) bool { return f.IsIncast },
			check: func(r *Result) bool { return r.FCT.Count() == 0 && r.FCTIncast.Count() > 0 }},
		{name: "BFC/no-flows", scheme: SchemeBFC, flows: func(*packet.Flow) bool { return false },
			check: func(r *Result) bool { return r.FCT.Count() == 0 && r.FCTIncast.Count() == 0 },
			edit:  func(r *Result) { r.FCTIncast = nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo := topology.NewT2()
			var flows []*packet.Flow
			for _, f := range goldenFlows(t, topo) {
				if c.flows == nil || c.flows(f) {
					flows = append(flows, f)
				}
			}
			opts := DefaultOptions(c.scheme, topo)
			opts.Duration, opts.Drain, opts.Seed = 150*units.Microsecond, 800*units.Microsecond, 7
			if c.opts != nil {
				c.opts(&opts)
			}
			res, err := Run(opts, flows)
			if err != nil {
				t.Fatal(err)
			}
			if res.BufferOccupancy.Count() == 0 || (c.check == nil && res.FCT.Count() == 0) || (c.check != nil && !c.check(res)) {
				t.Fatalf("the run does not hold what the case is for: %d completions, %d buffer samples, pause fractions %v",
					res.FCT.Count(), res.BufferOccupancy.Count(), res.PauseTimeFraction)
			}
			if c.edit != nil {
				c.edit(res)
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
// each statistic, wherever it sits (Scenario's phases hold collectors too),
// replaced by the plain values its wire form decodes to (a bucket list,
// sample arrays, sketch objects), so that json.Marshal encodes it without
// calling one of package stats' encoders.
func plainResult(t *testing.T, res *Result) any {
	t.Helper()
	v := plainValue(t, reflect.ValueOf(res).Elem())
	v.FieldByName("Telemetry").SetZero()
	return v.Interface()
}

// plainCollector is an FCT collector's wire form in encoding/json's types.
type plainCollector struct {
	Buckets []stats.SizeBucket `json:"buckets"`
	PerSize []any              `json:"per_size"`
	All     any                `json:"all"`
}

var (
	collectorType    = reflect.TypeFor[*stats.FCTCollector]()
	distributionType = reflect.TypeFor[stats.Distribution]()
)

// plainType returns the type plainValue turns a value of type typ into:
// typ with every collector a *plainCollector and every distribution an any,
// through pointers, slices and structs.
func plainType(typ reflect.Type) reflect.Type {
	switch typ {
	case collectorType:
		return reflect.TypeFor[*plainCollector]()
	case distributionType:
		return reflect.TypeFor[any]()
	}
	switch typ.Kind() {
	case reflect.Pointer:
		if e := plainType(typ.Elem()); e != typ.Elem() {
			return reflect.PointerTo(e)
		}
	case reflect.Slice:
		if e := plainType(typ.Elem()); e != typ.Elem() {
			return reflect.SliceOf(e)
		}
	case reflect.Struct:
		fields := make([]reflect.StructField, typ.NumField())
		changed := false
		for i := range fields {
			f := typ.Field(i)
			fields[i] = reflect.StructField{Name: f.Name, Type: plainType(f.Type), Tag: f.Tag}
			changed = changed || fields[i].Type != f.Type
		}
		if changed {
			return reflect.StructOf(fields)
		}
	}
	return typ
}

// plainValue returns v as a value of plainType(v.Type()).
func plainValue(t *testing.T, v reflect.Value) reflect.Value {
	typ := plainType(v.Type())
	if typ == v.Type() {
		return v
	}
	out := reflect.New(typ).Elem()
	switch {
	case v.Type() == collectorType:
		if !v.IsNil() {
			out.Set(reflect.ValueOf(plainCollectorOf(t, v.Interface().(*stats.FCTCollector))))
		}
	case v.Type() == distributionType:
		raw, err := v.Interface().(stats.Distribution).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out.Set(reflect.ValueOf(plainDistribution(t, raw)))
	case v.Kind() == reflect.Pointer:
		if !v.IsNil() {
			out.Set(reflect.New(typ.Elem()))
			out.Elem().Set(plainValue(t, v.Elem()))
		}
	case v.Kind() == reflect.Slice:
		if !v.IsNil() {
			out.Set(reflect.MakeSlice(typ, v.Len(), v.Len()))
			for i := range v.Len() {
				out.Index(i).Set(plainValue(t, v.Index(i)))
			}
		}
	default:
		for i := range v.NumField() {
			out.Field(i).Set(plainValue(t, v.Field(i)))
		}
	}
	return out
}

// plainCollectorOf decodes c's wire form into a plainCollector.
func plainCollectorOf(t *testing.T, c *stats.FCTCollector) *plainCollector {
	t.Helper()
	var w struct {
		Buckets []stats.SizeBucket `json:"buckets"`
		PerSize []json.RawMessage  `json:"per_size"`
		All     json.RawMessage    `json:"all"`
	}
	raw, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	plain := &plainCollector{Buckets: w.Buckets, All: plainDistribution(t, w.All)}
	for _, d := range w.PerSize {
		plain.PerSize = append(plain.PerSize, plainDistribution(t, d))
	}
	return plain
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

// TestResultDigestAllocs bounds what ResultDigest allocates for the T2 BFC
// run: its one fixed buffer, the hash and the few small parts encoding/json
// writes (the bucket lists and the pause map), under 16 KB, and no more once
// every statistic holds four times the samples. Encoding the result into one
// buffer first would take its whole length, 131 KB here. TotalAlloc
// counts the whole process, so the test measures in a fresh child of the test
// binary, where no earlier test's state can allocate inside the window.
func TestResultDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops encoding/json's encoders at random, which then allocate anew")
	}
	if !inFreshChild(t) {
		return
	}
	const bound = 16 << 10
	topo := topology.NewT2()
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration, opts.Drain, opts.Seed = 150*units.Microsecond, 800*units.Microsecond, 7
	res, err := Run(opts, goldenFlows(t, topo))
	if err != nil {
		t.Fatal(err)
	}
	stored := func() int {
		return res.FCT.StoredSamples() + res.FCTIncast.StoredSamples() +
			res.BufferOccupancy.StoredSamples() + res.OccupiedQueues.StoredSamples()
	}
	// perDigest is the least TotalAlloc of nine digests after a collection.
	// The first refills encoding/json's pools and a collection inside a later
	// one empties them; the least counts neither.
	perDigest := func() uint64 {
		runtime.GC()
		least := uint64(math.MaxUint64)
		for range 9 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ResultDigest(res); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	samples, small := stored(), perDigest()
	for _, c := range []*stats.FCTCollector{res.FCT, res.FCTIncast} {
		for i := range 3 * c.Count() {
			ideal := units.Time(10+i%7) * units.Microsecond
			c.Record(units.Bytes(1+i*7919%(2<<20)), ideal*units.Time(1+i%5)+units.Time(i), ideal)
		}
	}
	for _, d := range []*stats.Distribution{&res.BufferOccupancy, &res.OccupiedQueues} {
		for i := range 3 * d.Count() {
			d.Add(float64(i) * 1.0000001)
		}
	}
	if stored() < 4*samples {
		t.Fatalf("the statistics hold %d samples, want at least %d", stored(), 4*samples)
	}
	large := perDigest()
	t.Logf("ResultDigest allocated %d B over %d samples, %d B over %d (bound %d B)", small, samples, large, stored(), bound)
	if small > bound || large > bound {
		t.Errorf("ResultDigest allocated %d B over %d samples and %d B over %d, want at most %d B", small, samples, large, stored(), bound)
	}
	if large > small {
		t.Errorf("ResultDigest allocated %d B over %d samples but %d B over %d: what it allocates grows with the samples",
			small, samples, large, stored())
	}
}

// childEnv marks a fresh child of the test binary that runs one test alone.
const childEnv = "BFC_TEST_CHILD"

// inFreshChild reports whether this process is a fresh child of the test
// binary running t alone. Otherwise it runs t in one, waits for it, fails t
// with the child's output if the child failed, and reports false. A
// measurement of the whole process's allocations (runtime.MemStats.TotalAlloc)
// made in the child sees nothing of what earlier tests left running or
// allocating.
func inFreshChild(t *testing.T) bool {
	if os.Getenv(childEnv) == t.Name() {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	t.Logf("fresh child:\n%s", out)
	if err != nil {
		t.Fatalf("%s in a fresh child: %v", t.Name(), err)
	}
	return false
}
