// Wall-clock Chrome trace export: the execution-machinery complement to the
// sim-time trace in internal/telemetry. Each shard gets a process track,
// every lookahead window becomes a complete ("X") slice sized by that shard's
// busy time inside it, the coordinator's boundary drains render on their own
// track, and flow events ("s"/"f") tie each shard's window end to the barrier
// that consumed its boundary messages. Load the file in Perfetto or
// chrome://tracing; a healthy sharded run shows dense same-length slices,
// while a straggling shard shows one long slice per window with the others
// idle — exactly the signal shard-placement work needs.
package execstats

import (
	"fmt"
	"io"

	"bfc/internal/telemetry"
)

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace renders the run's wall-clock execution profile as a
// Chrome trace.
func WriteChromeTrace(w io.Writer, runName string, rs *RunStats) error {
	if rs == nil {
		return fmt.Errorf("execstats: no run stats to export")
	}
	coordPID := int64(len(rs.Shards))
	events := make([]telemetry.TraceEvent, 0, 2*len(rs.Shards)+4*len(rs.Spans)*len(rs.Shards)+8)

	meta := func(pid int64, name string) {
		events = append(events,
			telemetry.TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}},
			telemetry.TraceEvent{Name: "thread_name", Ph: "M", PID: pid, Args: map[string]any{"name": "exec"}},
		)
	}
	for i := range rs.Shards {
		meta(int64(i), fmt.Sprintf("shard %d", i))
	}
	if len(rs.Spans) > 0 {
		meta(coordPID, "coordinator")
	}

	for wi := range rs.Spans {
		sp := &rs.Spans[wi]
		flowID := fmt.Sprintf("w%d", wi)
		for si, busy := range sp.BusyNS {
			if busy <= 0 {
				continue
			}
			events = append(events, telemetry.TraceEvent{
				Name: "window", Cat: "exec", Ph: "X",
				TS: usec(sp.StartNS), Dur: usec(busy), PID: int64(si),
				Args: map[string]any{"events": sp.Events},
			})
			if sp.Drained > 0 {
				// Flow from this shard's window end into the barrier drain.
				events = append(events, telemetry.TraceEvent{
					Name: "boundary", Cat: "exec", Ph: "s", ID: flowID,
					TS: usec(sp.StartNS + busy), PID: int64(si),
				})
			}
		}
		if sp.DrainNS > 0 || sp.Drained > 0 {
			drainStart := sp.StartNS + sp.WallNS - sp.DrainNS
			events = append(events, telemetry.TraceEvent{
				Name: "barrier drain", Cat: "exec", Ph: "X",
				TS: usec(drainStart), Dur: usec(max(sp.DrainNS, 1)), PID: coordPID,
				Args: map[string]any{"drained": sp.Drained},
			})
			if sp.Drained > 0 {
				events = append(events, telemetry.TraceEvent{
					Name: "boundary", Cat: "exec", Ph: "f", ID: flowID, TS: usec(drainStart), PID: coordPID,
				})
			}
		}
	}

	doc := telemetry.TraceDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"run":             runName,
			"clock":           "wall",
			"shards":          len(rs.Shards),
			"windows":         rs.Windows,
			"barriers":        rs.Barriers,
			"total_events":    rs.TotalEvents,
			"utilization":     rs.Utilization(),
			"truncated_spans": rs.TruncatedSpans,
			"wall_ns":         rs.WallNS,
			"barrier_wait_ns": rs.BarrierWaitNS(),
		},
	}
	return doc.Encode(w)
}
