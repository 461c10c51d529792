package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// WriteJSONL writes one event per line as JSON. The encoding is fully
// deterministic (fixed field order, kinds as stable names), so two traces of
// the same run are byte-identical.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("telemetry: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// TraceConfig parameterizes the Chrome trace_event export.
type TraceConfig struct {
	// RunName labels the trace (shown as metadata).
	RunName string
	// NodeName resolves a topology node to a display name; nil falls back to
	// "node<N>".
	NodeName func(packet.NodeID) string
}

func (c *TraceConfig) nodeName(id packet.NodeID) string {
	if c.NodeName != nil {
		return c.NodeName(id)
	}
	return fmt.Sprintf("node%d", id)
}

// TraceEvent is one record of the Chrome trace_event JSON format (the subset
// Perfetto's JSON importer understands). It is the only declaration of the
// record in the tree: the sim-time export below and the wall-clock export in
// execstats both fill it.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is a Chrome trace_event document: what Perfetto
// (ui.perfetto.dev) and chrome://tracing load.
type TraceDoc struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// Encode writes the document as one line of JSON.
func (d *TraceDoc) Encode(w io.Writer) error { return json.NewEncoder(w).Encode(d) }

// ts converts picosecond sim time to the trace format's microseconds.
func traceTS(t units.Time) float64 { return float64(t) / float64(units.Microsecond) }

// spanKey identifies an open begin/end interval while exporting.
type spanKey struct {
	node  packet.NodeID
	port  int32
	queue int32
	kind  Kind
}

// WriteChromeTrace renders events into Chrome trace_event JSON loadable by
// Perfetto (ui.perfetto.dev) or chrome://tracing. Mapping: each topology node
// becomes a process; PFC pauses are duration slices on a per-port track, BFC
// queue pauses on a per-(port,queue) track; flows are async spans keyed by
// flow ID; drops, stranding, reroutes and scenario events are instants.
// Unbalanced pause intervals (still open when the trace ends, or opened
// before the ring's window) are closed/ignored so the output always parses.
func WriteChromeTrace(w io.Writer, cfg TraceConfig, events []Event) error {
	var out []TraceEvent
	seenNode := map[packet.NodeID]bool{}
	noteNode := func(id packet.NodeID) {
		if !seenNode[id] {
			seenNode[id] = true
			out = append(out, TraceEvent{
				Name: "process_name", Ph: "M", PID: int64(id),
				Args: map[string]any{"name": cfg.nodeName(id)},
			})
		}
	}
	// Track IDs: PFC pauses use tid = port; BFC queue pauses use a per-queue
	// track above the port range.
	pfcTID := func(port int32) int64 { return int64(port) }
	bfcTID := func(port, queue int32) int64 { return int64(port)*4096 + int64(queue) + 1<<20 }

	open := map[spanKey]bool{}
	var last units.Time
	for i := range events {
		ev := &events[i]
		if ev.At > last {
			last = ev.At
		}
		noteNode(ev.Node)
		switch ev.Kind {
		case KindFlowStart:
			out = append(out, TraceEvent{
				Name: "flow", Cat: "flow", Ph: "b", TS: traceTS(ev.At),
				PID: int64(ev.Node), ID: fmt.Sprintf("0x%x", uint64(ev.Flow)),
				Args: map[string]any{"bytes": ev.Value},
			})
		case KindFlowFinish:
			out = append(out, TraceEvent{
				Name: "flow", Cat: "flow", Ph: "e", TS: traceTS(ev.At),
				PID: int64(ev.Node), ID: fmt.Sprintf("0x%x", uint64(ev.Flow)),
			})
		case KindPFCPause, KindPFCResume:
			key := spanKey{node: ev.Node, port: ev.Port, kind: KindPFCPause}
			if ev.Kind == KindPFCPause {
				if open[key] {
					continue // duplicate begin; keep the first
				}
				open[key] = true
				out = append(out, TraceEvent{
					Name: "PFC pause", Cat: "pfc", Ph: "B", TS: traceTS(ev.At),
					PID: int64(ev.Node), TID: pfcTID(ev.Port),
				})
			} else {
				if !open[key] {
					continue // resume whose pause predates the trace window
				}
				delete(open, key)
				out = append(out, TraceEvent{
					Name: "PFC pause", Cat: "pfc", Ph: "E", TS: traceTS(ev.At),
					PID: int64(ev.Node), TID: pfcTID(ev.Port),
				})
			}
		case KindBFCPause, KindBFCResume:
			key := spanKey{node: ev.Node, port: ev.Port, queue: ev.Queue, kind: KindBFCPause}
			if ev.Kind == KindBFCPause {
				if open[key] {
					continue
				}
				open[key] = true
				out = append(out, TraceEvent{
					Name: fmt.Sprintf("BFC pause q%d", ev.Queue), Cat: "bfc", Ph: "B",
					TS: traceTS(ev.At), PID: int64(ev.Node), TID: bfcTID(ev.Port, ev.Queue),
				})
			} else {
				if !open[key] {
					continue
				}
				delete(open, key)
				out = append(out, TraceEvent{
					Name: fmt.Sprintf("BFC pause q%d", ev.Queue), Cat: "bfc", Ph: "E",
					TS: traceTS(ev.At), PID: int64(ev.Node), TID: bfcTID(ev.Port, ev.Queue),
				})
			}
		default:
			out = append(out, TraceEvent{
				Name: ev.Kind.String(), Cat: "event", Ph: "i", TS: traceTS(ev.At),
				PID: int64(ev.Node), TID: int64(ev.Port), S: "p",
				Args: map[string]any{"queue": ev.Queue, "flow": int64(ev.Flow), "value": ev.Value},
			})
		}
	}
	// Close intervals still open at the end of the window so every B has an E.
	// Map iteration order is randomized; sort the keys for byte-stable output.
	if len(open) > 0 {
		keys := make([]spanKey, 0, len(open))
		for k := range open {
			keys = append(keys, k)
		}
		sortSpanKeys(keys)
		for _, k := range keys {
			te := TraceEvent{TS: traceTS(last), Ph: "E", PID: int64(k.node)}
			if k.kind == KindPFCPause {
				te.Name, te.Cat, te.TID = "PFC pause", "pfc", pfcTID(k.port)
			} else {
				te.Name, te.Cat, te.TID = fmt.Sprintf("BFC pause q%d", k.queue), "bfc", bfcTID(k.port, k.queue)
			}
			out = append(out, te)
		}
	}

	doc := TraceDoc{TraceEvents: out, DisplayTimeUnit: "ns"}
	if cfg.RunName != "" {
		doc.Metadata = map[string]any{"run": cfg.RunName}
	}
	return doc.Encode(w)
}

// sortSpanKeys orders keys by (node, port, queue, kind).
func sortSpanKeys(keys []spanKey) {
	sort.Slice(keys, func(i, j int) bool { return spanKeyLess(keys[i], keys[j]) })
}

func spanKeyLess(a, b spanKey) bool {
	if a.node != b.node {
		return a.node < b.node
	}
	if a.port != b.port {
		return a.port < b.port
	}
	if a.queue != b.queue {
		return a.queue < b.queue
	}
	return a.kind < b.kind
}
