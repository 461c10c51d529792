package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "bench.repetition", start: 0, end: 100 * ms, parent: -1},
		// Two adjacent children, the second with a child of its own.
		{name: "topology.build", start: 10 * ms, end: 30 * ms, parent: 0},
		{name: "sim.run", start: 30 * ms, end: 90 * ms, parent: 0},
		{name: "stats.digest", start: 40 * ms, end: 50 * ms, parent: 2},
		// A sibling that overlaps stats.digest counts the shared part once.
		{name: "stats.merge", start: 45 * ms, end: 60 * ms, parent: 2},
		// A child that outlives its parent is clipped to it.
		{name: "sim.late", start: 85 * ms, end: 95 * ms, parent: 2},
	}
	want := []time.Duration{20 * ms, 20 * ms, 35 * ms, 10 * ms, 15 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestLadderSumsToTheRepetition(t *testing.T) {
	spans := []span{
		{name: "bench.repetition", start: 0, end: 50 * ms, parent: -1, rep: 1},
		{name: "bench.repetition", start: 100 * ms, end: 200 * ms, parent: -1, rep: 2},
		{name: "topology.build", start: 110 * ms, end: 130 * ms, parent: 1, rep: 2},
		{name: "sim.run", start: 130 * ms, end: 190 * ms, parent: 1, rep: 2},
		{name: "stats.digest", start: 140 * ms, end: 150 * ms, parent: 3, rep: 2},
		{name: "sim.other_rep", start: 10 * ms, end: 20 * ms, parent: 0, rep: 1},
	}
	rows := ladder(spans, 1)
	want := []ladderRow{{"sim", 0.050}, {"topology", 0.020}, {"stats", 0.010}, {"unattributed", 0.020}}
	if len(rows) != len(want) {
		t.Fatalf("ladder = %+v, want %+v", rows, want)
	}
	var sum float64
	for i := range want {
		if rows[i].layer != want[i].layer || math.Abs(rows[i].seconds-want[i].seconds) > 1e-9 {
			t.Errorf("rung %d = %+v, want %+v", i, rows[i], want[i])
		}
		sum += rows[i].seconds
	}
	if math.Abs(sum-0.100) > 1e-9 {
		t.Errorf("rungs sum to %v s, want the repetition's 0.1 s", sum)
	}
}

func TestTracerNestsAndNilIsFree(t *testing.T) {
	var off *tracer
	ran := false
	off.do("sim.run", func() { ran = true })
	if !ran {
		t.Fatal("a nil tracer did not run the function")
	}

	tr := newTracer()
	tr.rep = 3
	tr.do("bench.repetition", func() {
		tr.do("topology.build", func() {})
		tr.do("sim.run", func() { tr.do("stats.digest", func() {}) })
	})
	wantParents := []int{-1, 0, 0, 2}
	if len(tr.spans) != len(wantParents) {
		t.Fatalf("%d spans recorded, want %d", len(tr.spans), len(wantParents))
	}
	for i, s := range tr.spans {
		if s.parent != wantParents[i] || s.rep != 3 || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d and rep 3", i, s, wantParents[i])
		}
	}
	if total, n := sumSpans(tr.spans, 3, "sim.run"); n != 1 || total < 0 {
		t.Errorf("sumSpans found %d sim.run spans (%v s), want 1", n, total)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeChromeTrace(path, "unit", tr.spans); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          struct {
				Parent string
				Rep    int
			}
		}
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d trace events, want 4", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[3]
	if last.Name != "stats.digest" || last.Cat != "stats" || last.Ph != "X" || last.Args.Parent != "sim.run" || last.Args.Rep != 3 {
		t.Errorf("last trace event = %+v", last)
	}
}
