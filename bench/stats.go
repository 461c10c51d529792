package main

import (
	"math"
	"sort"
)

// summary describes the samples of one timing or count.
type summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
}

// summarize returns the median, quartiles and minimum of values. Quartiles
// follow Python's statistics.quantiles(values, n=4) (the exclusive method),
// because that is what the driver's A/A check computes.
func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	s := summary{N: n, Min: x[0], Median: median(x)}
	if n == 1 {
		s.Q1, s.Q3 = x[0], x[0]
		return s
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	s.Q1, s.Q3 = quartile(1), quartile(3)
	return s
}

// median expects sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// worseBy returns by what share of ref the value got worse (negative when it
// got better), given which direction is better.
func worseBy(ref, got float64, better string) float64 {
	if ref == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (got - ref) / math.Abs(ref)
	if better == "higher" {
		d = -d
	}
	return d
}

// Verdicts of an A/A comparison of one workload/metric pair.
const (
	verdictAgree      = "agree"
	verdictDisagree   = "disagree"
	verdictUnresolved = "unresolved"
)

// compare judges two sets of runs of the same code on one metric against its
// bound. The sets disagree when either median is worse than the other by more
// than the bound: in an A/A check a gap in either direction means the box or
// the benchmark cannot support the bound. Otherwise a spread wider than the
// bound on either side means the box was too noisy to tell.
func compare(first, second summary, m metricDecl) string {
	if worseBy(first.Median, second.Median, m.Better) > m.Bound || worseBy(second.Median, first.Median, m.Better) > m.Bound {
		return verdictDisagree
	}
	if first.spread() > m.Bound || second.spread() > m.Bound {
		return verdictUnresolved
	}
	return verdictAgree
}
