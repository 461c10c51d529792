package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the service telemetry plane's metrics core: a hand-rolled,
// dependency-free subset of the Prometheus client model (counters, gauges,
// histograms, one-label counter vectors) with text exposition (version 0.0.4)
// for bfcd's /metrics endpoint.

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending, excluding +Inf
	buckets []uint64  // non-cumulative per-bound counts
	inf     uint64
	sum     float64
	count   uint64
}

// DefBuckets are request-latency buckets in seconds (Prometheus defaults).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
	h.inf++
}

// CounterVec is a counter family with one label dimension (e.g. HTTP status
// class). Safe for concurrent use.
type CounterVec struct {
	label string
	mu    sync.Mutex
	kids  map[string]*Counter
}

// With returns (creating on first use) the child counter for a label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[value]
	if !ok {
		c = &Counter{}
		v.kids[value] = c
	}
	return c
}

// FloatGauge is a float-valued gauge (atomic on the float's bits). Safe for
// concurrent use.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a float-gauge family with one label dimension (e.g. per-worker
// throughput). Unlike CounterVec, children can be deleted — a dead worker's
// series disappears from /metrics instead of freezing at its last value.
type GaugeVec struct {
	label string
	mu    sync.Mutex
	kids  map[string]*FloatGauge
}

// With returns (creating on first use) the child gauge for a label value.
func (v *GaugeVec) With(value string) *FloatGauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.kids[value]
	if !ok {
		g = &FloatGauge{}
		v.kids[value] = g
	}
	return g
}

// Delete drops the child for a label value (no-op if absent).
func (v *GaugeVec) Delete(value string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.kids, value)
}

// metric is one registered family.
type metric struct {
	name, help, typ string
	counter         *Counter
	gauge           *Gauge
	hist            *Histogram
	vec             *CounterVec
	gvec            *GaugeVec
	constVal        float64 // for Registry.Const families (e.g. build_info)
	constLabels     string  // pre-rendered {k="v",...} label set
	isConst         bool
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families render sorted by name, so /metrics output is
// stable across runs.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", m.name))
	}
	r.metrics[m.name] = m
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, typ: "counter", counter: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// NewHistogram registers and returns a histogram with the given ascending
// upper bounds (DefBuckets when nil).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds))}
	r.register(&metric{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// NewCounterVec registers and returns a counter family keyed by one label.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, kids: map[string]*Counter{}}
	r.register(&metric{name: name, help: help, typ: "counter", vec: v})
	return v
}

// NewGaugeVec registers and returns a float-gauge family keyed by one label.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{label: label, kids: map[string]*FloatGauge{}}
	r.register(&metric{name: name, help: help, typ: "gauge", gvec: v})
	return v
}

// Const registers a constant gauge with a fixed label set — the build_info
// idiom (value 1, labels carry the information).
func (r *Registry) Const(name, help string, value float64, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rendered := ""
	for i, k := range keys {
		if i > 0 {
			rendered += ","
		}
		rendered += fmt.Sprintf("%s=%q", k, labels[k])
	}
	r.register(&metric{name: name, help: help, typ: "gauge", isConst: true,
		constVal: value, constLabels: rendered})
}

// WriteText renders every family in text exposition format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*metric, len(names))
	for i, name := range names {
		fams[i] = r.metrics[name]
	}
	r.mu.Unlock()

	for _, m := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		switch {
		case m.isConst:
			fmt.Fprintf(w, "%s{%s} %s\n", m.name, m.constLabels, formatFloat(m.constVal))
		case m.counter != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case m.vec != nil:
			m.vec.mu.Lock()
			vals := make([]string, 0, len(m.vec.kids))
			for v := range m.vec.kids {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", m.name, m.vec.label, v, m.vec.kids[v].Value())
			}
			m.vec.mu.Unlock()
		case m.gvec != nil:
			m.gvec.mu.Lock()
			vals := make([]string, 0, len(m.gvec.kids))
			for v := range m.gvec.kids {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				fmt.Fprintf(w, "%s{%s=%q} %s\n", m.name, m.gvec.label, v, formatFloat(m.gvec.kids[v].Value()))
			}
			m.gvec.mu.Unlock()
		case m.hist != nil:
			h := m.hist
			h.mu.Lock()
			var cum uint64
			for i, b := range h.bounds {
				cum += h.buckets[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum+h.inf)
			fmt.Fprintf(w, "%s_sum %s\n", m.name, formatFloat(h.sum))
			fmt.Fprintf(w, "%s_count %d\n", m.name, h.count)
			h.mu.Unlock()
		}
	}
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the /metrics HTTP handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
