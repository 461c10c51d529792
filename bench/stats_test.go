package main

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		want   summary
	}{
		// Reference values are Python's statistics.median and
		// statistics.quantiles(values, n=4), which the driver uses.
		{"odd", []float64{5, 1, 4, 2, 3}, summary{N: 5, Min: 1, Q1: 1.5, Median: 3, Q3: 4.5}},
		{"even", []float64{4, 1, 3, 2}, summary{N: 4, Min: 1, Q1: 1.25, Median: 2.5, Q3: 3.75}},
		{"ten", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{N: 10, Min: 1, Q1: 2.75, Median: 5.5, Q3: 8.25}},
		{"two", []float64{2, 1}, summary{N: 2, Min: 1, Q1: 0.75, Median: 1.5, Q3: 2.25}},
		{"one", []float64{7}, summary{N: 1, Min: 7, Q1: 7, Median: 7, Q3: 7}},
		{"none", nil, summary{}},
	}
	for _, c := range cases {
		if got := summarize(c.values); got != c.want {
			t.Errorf("%s: summarize(%v) = %+v, want %+v", c.name, c.values, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("summarize reordered its argument: %v", in)
	}
}

func TestSpread(t *testing.T) {
	s := summary{Q1: 9, Median: 10, Q3: 12}
	if got := s.spread(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread = %v, want 0.3", got)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("spread of an empty summary = %v, want 0", got)
	}
}

func TestWorseBy(t *testing.T) {
	cases := []struct {
		ref, got float64
		better   string
		want     float64
	}{
		{10, 11, "lower", 0.1},
		{10, 9, "lower", -0.1},
		{10, 11, "higher", -0.1},
		{10, 9, "higher", 0.1},
		{10, 10, "lower", 0},
		{0, 0, "lower", 0},
		{0, 1, "lower", math.Inf(1)},
	}
	for _, c := range cases {
		if got := worseBy(c.ref, c.got, c.better); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.ref, c.got, c.better, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	tight := func(median float64) summary {
		return summary{N: 10, Q1: median * 0.99, Median: median, Q3: median * 1.01}
	}
	exact := func(v float64) summary { return summary{N: 10, Q1: v, Median: v, Q3: v} }
	lower := metricDecl{Name: "run_wall_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "events_per_s", Better: "higher", Bound: 0.10}
	zero := metricDecl{Name: "eventsim.events", Better: "lower", Bound: 0}
	cases := []struct {
		name          string
		first, second summary
		m             metricDecl
		want          string
	}{
		{"lower-better, 5 % slower", tight(1), tight(1.05), lower, verdictAgree},
		{"lower-better, 15 % slower", tight(1), tight(1.15), lower, verdictDisagree},
		{"lower-better, 15 % faster", tight(1), tight(0.85), lower, verdictDisagree},
		{"lower-better, 8 % faster", tight(1), tight(0.92), lower, verdictAgree},
		{"higher-better, 15 % less", tight(100), tight(85), higher, verdictDisagree},
		{"higher-better, 15 % more", tight(100), tight(115), higher, verdictDisagree},
		{"higher-better, 5 % more", tight(100), tight(105), higher, verdictAgree},
		{"spread wider than the bound", summary{N: 10, Q1: 0.9, Median: 1, Q3: 1.1}, tight(1), lower, verdictUnresolved},
		{"exact bound, identical", exact(42), exact(42), zero, verdictAgree},
		{"exact bound, one more", exact(42), exact(43), zero, verdictDisagree},
		{"exact bound, one fewer", exact(42), exact(41), zero, verdictDisagree},
	}
	for _, c := range cases {
		if got := compare(c.first, c.second, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestScale(t *testing.T) {
	if got := scale([]float64{yardstickRef, yardstickRef / 2, yardstickRef * 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("scale at the reference reading = %v, want 1", got)
	}
	// A box on which the yardstick takes twice as long is slowed by less than
	// twice for the workloads: 2^-0.8.
	if got, want := scale([]float64{2 * yardstickRef}), math.Pow(2, -yardstickExponent); math.Abs(got-want) > 1e-12 {
		t.Errorf("scale at twice the reference reading = %v, want %v", got, want)
	}
}
