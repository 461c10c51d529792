package execstats

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestSummaryAddNil pins that a record without a profile (one served from a
// store, or one that crossed JSON) adds no run to a summary.
func TestSummaryAddNil(t *testing.T) {
	var s Summary
	s.Add(nil)
	if s.Runs != 0 {
		t.Fatalf("Summary.Add(nil) counted a run: %+v", s)
	}
	if got := s.Utilization(); got != 1 {
		t.Fatalf("empty Summary utilization = %v, want 1", got)
	}
}

// TestCollectorLifecycle drives two windows on a two-shard collector and
// checks the invariants Finish must hold: window/barrier counts, span deltas,
// per-shard busy accumulation, and wait = window wall - shard busy (so the
// idle shard accrues wait while the busy one does not).
func TestCollectorLifecycle(t *testing.T) {
	c := NewCollector(2)

	c.BeginWindow()
	c.ShardBusy(0, 4*time.Millisecond)
	c.ShardBusy(1, 1*time.Millisecond)
	c.Barrier(500*time.Microsecond, 7)
	c.EndWindow(100)

	c.BeginWindow()
	c.ShardBusy(0, 2*time.Millisecond)
	c.Barrier(250*time.Microsecond, 3)
	c.EndWindow(150)

	rs := c.Finish()
	if rs.Windows != 2 || rs.Barriers != 2 {
		t.Fatalf("windows=%d barriers=%d, want 2/2", rs.Windows, rs.Barriers)
	}
	if len(rs.Spans) != 2 {
		t.Fatalf("spans=%d, want 2", len(rs.Spans))
	}
	if rs.Spans[0].Events != 100 || rs.Spans[1].Events != 50 {
		t.Fatalf("span events = %d, %d; want 100, 50 (cumulative deltas)",
			rs.Spans[0].Events, rs.Spans[1].Events)
	}
	if rs.Spans[0].Drained != 7 || rs.Spans[1].Drained != 3 {
		t.Fatalf("span drained = %d, %d; want 7, 3", rs.Spans[0].Drained, rs.Spans[1].Drained)
	}
	if got := rs.Shards[0].BusyNS; got != (6 * time.Millisecond).Nanoseconds() {
		t.Fatalf("shard 0 busy = %d ns, want 6ms", got)
	}
	if got := rs.Shards[1].BusyNS; got != (1 * time.Millisecond).Nanoseconds() {
		t.Fatalf("shard 1 busy = %d ns, want 1ms", got)
	}
	// Shard 1 was idle for most of both windows; its recorded wait must
	// exceed shard 0's (the straggler that set the window wall-clock).
	if rs.Shards[1].BarrierWaitNS <= rs.Shards[0].BarrierWaitNS {
		t.Fatalf("idle shard wait (%d) not above busy shard wait (%d)",
			rs.Shards[1].BarrierWaitNS, rs.Shards[0].BarrierWaitNS)
	}
	if rs.DrainNS != (750 * time.Microsecond).Nanoseconds() {
		t.Fatalf("drain = %d ns, want 750us", rs.DrainNS)
	}
	if rs.WallNS <= 0 {
		t.Fatalf("wall = %d, want > 0", rs.WallNS)
	}
	if u := rs.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v, want (0, 1]", u)
	}
}

// TestSpanCap verifies the span log stops growing at DefaultMaxSpans while
// the aggregate counters keep counting, and that the spans carved from one
// page keep their own busy times.
func TestSpanCap(t *testing.T) {
	c := NewCollector(2)
	const windows = DefaultMaxSpans + 2
	for i := 0; i < windows; i++ {
		c.BeginWindow()
		c.ShardBusy(0, time.Duration(i))
		c.ShardBusy(1, time.Duration(2*i))
		c.EndWindow(uint64(10 * (i + 1)))
	}
	rs := c.Finish()
	if len(rs.Spans) != DefaultMaxSpans {
		t.Fatalf("spans=%d, want cap %d", len(rs.Spans), DefaultMaxSpans)
	}
	if rs.TruncatedSpans != 2 {
		t.Fatalf("truncated=%d, want 2", rs.TruncatedSpans)
	}
	if rs.Windows != windows {
		t.Fatalf("windows=%d, want %d (aggregates keep counting past the cap)", rs.Windows, windows)
	}
	for i, sp := range rs.Spans {
		if len(sp.BusyNS) != 2 || sp.BusyNS[0] != int64(i) || sp.BusyNS[1] != int64(2*i) {
			t.Fatalf("span %d busy = %v, want [%d %d]", i, sp.BusyNS, i, 2*i)
		}
	}
}

// TestBoundaryTotalsMerge checks sum vs high-water semantics, and that
// nothing writes the Spills field bench/ still reads.
func TestBoundaryTotalsMerge(t *testing.T) {
	var b BoundaryTotals
	b.Merge(10, 3)
	b.Merge(5, 9)
	b.Merge(2, 4)
	want := BoundaryTotals{Pushes: 17, MaxDrain: 9, Spills: 0}
	if b != want {
		t.Fatalf("merge = %+v, want %+v", b, want)
	}
}

// TestSummaryAdd folds two synthetic runs and checks totals plus the
// worst-utilization tracking.
func TestSummaryAdd(t *testing.T) {
	good := &RunStats{
		Shards:  []ShardStats{{BusyNS: 900}, {BusyNS: 900, BarrierWaitNS: 100}},
		Windows: 4, Barriers: 4, TotalEvents: 1000, WallNS: 1000,
	}
	bad := &RunStats{
		Shards:      []ShardStats{{BusyNS: 100, BarrierWaitNS: 900}},
		TotalEvents: 50, WallNS: 1000,
	}
	var s Summary
	s.Add(good)
	s.Add(bad)
	s.Add(nil)
	if s.Runs != 2 || s.ShardedRuns != 1 {
		t.Fatalf("runs=%d sharded=%d, want 2/1", s.Runs, s.ShardedRuns)
	}
	if s.Events != 1050 || s.Windows != 4 || s.Barriers != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.BusyNS != 1900 || s.BarrierWaitNS != 1000 {
		t.Fatalf("busy=%d wait=%d, want 1900/1000", s.BusyNS, s.BarrierWaitNS)
	}
	if got, want := s.UtilizationMin, bad.Utilization(); got != want {
		t.Fatalf("utilization-min = %v, want the bad run's %v", got, want)
	}
}

// TestWriteChromeTrace renders a sharded profile and checks the document is
// well-formed trace_event JSON with the expected event phases.
func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector(2)
	c.BeginWindow()
	c.ShardBusy(0, time.Millisecond)
	c.ShardBusy(1, time.Millisecond)
	c.Barrier(100*time.Microsecond, 5)
	c.EndWindow(10)
	rs := c.Finish()
	rs.TotalEvents = 10

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "test-run", rs); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["M"] == 0 || phases["X"] == 0 {
		t.Fatalf("trace missing metadata or slice events: %v", phases)
	}
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("trace missing flow events for the barrier drain: %v", phases)
	}
	if doc.Metadata["run"] != "test-run" {
		t.Fatalf("metadata run = %v", doc.Metadata["run"])
	}

	if err := WriteChromeTrace(&buf, "nil", nil); err == nil {
		t.Fatal("WriteChromeTrace(nil stats) did not error")
	}
}
