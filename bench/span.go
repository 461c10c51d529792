package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Names are "<layer>.<what>", the layer being one of the repo's
// packages; parent is an index into the tracer's spans, -1 for a root.
type span struct {
	name       string
	start, end time.Duration // offsets from the tracer's origin
	parent     int
	rep        int
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. The benchmark's client is
// single-threaded, so the open spans form a stack. A nil tracer records
// nothing: untraced runs call the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	rep    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do times f as a child of the innermost open span.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, rep: t.rep, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	f()
	t.spans[id].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, until := time.Duration(0), s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from < until {
				from = until
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// ladderRow is one rung: a layer's self time in the median repetition.
type ladderRow struct {
	layer   string
	seconds float64
}

// ladder sums self time by layer over the repetition rooted at root. The
// root span's own self time is the benchmark's glue between layer calls and
// is reported as "unattributed", so the rows sum to the root's duration.
func ladder(spans []span, root int) []ladderRow {
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	for i, s := range spans {
		if i == root || !descends(spans, i, root) {
			continue
		}
		byLayer[s.layer()] += self[i]
	}
	rows := make([]ladderRow, 0, len(byLayer)+1)
	for layer, d := range byLayer {
		rows = append(rows, ladderRow{layer, d.Seconds()})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].seconds != rows[b].seconds {
			return rows[a].seconds > rows[b].seconds
		}
		return rows[a].layer < rows[b].layer
	})
	return append(rows, ladderRow{"unattributed", self[root].Seconds()})
}

func descends(spans []span, i, root int) bool {
	for p := spans[i].parent; p >= 0; p = spans[p].parent {
		if p == root {
			return true
		}
	}
	return false
}

// sumSpans totals the durations of the named spans inside repetition rep.
func sumSpans(spans []span, rep int, name string) (total float64, count int) {
	for _, s := range spans {
		if s.rep == rep && s.name == name {
			total += (s.end - s.start).Seconds()
			count++
		}
	}
	return total, count
}

// writeChromeTrace writes the spans as complete ("X") events of the Chrome
// trace_event format, which Perfetto (ui.perfetto.dev) opens directly.
func writeChromeTrace(path string, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": i, "parent": parent, "parent_id": s.parent, "rep": s.rep, "workload": workload},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding span file: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}
