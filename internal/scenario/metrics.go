package scenario

import (
	"strconv"

	"bfc/internal/stats"
	"bfc/internal/units"
)

// Metrics is the per-scenario half of a simulation result. A Planned
// scenario updates the counters as its events fire; the sim runner feeds flow completions
// into the phase windows and folds in the link/switch loss counters at
// collection time. All fields marshal deterministically (no maps), so
// results containing Metrics stay byte-stable across runs and worker counts.
type Metrics struct {
	// Spec echoes the scenario name.
	Spec string `json:"spec"`
	// EventsApplied counts events that actually fired before the horizon.
	EventsApplied int `json:"events_applied"`
	// Reroutes totals the (node, destination-host) next-hop set changes made
	// by topology route recomputations across all link events.
	Reroutes int `json:"reroutes"`
	// StrandedPackets / StrandedBytes count data packets lost on failed
	// links — both those in flight at failure time and those transmitted
	// into the outage. Every stranded packet is recycled into the run's
	// packet pool, never leaked.
	StrandedPackets uint64      `json:"stranded_packets"`
	StrandedBytes   units.Bytes `json:"stranded_bytes"`
	// NoRouteDrops counts packets dropped at switches because a link failure
	// left their destination transiently unreachable from that switch.
	NoRouteDrops uint64 `json:"no_route_drops"`
	// InjectedFlows counts flows started by Incast and WorkloadShift events.
	InjectedFlows int `json:"injected_flows"`
	// Phases are the FCT windows delimited by the scenario's event times:
	// "pre" covers [0, first event), each event opens a new window, and the
	// last window closes at the run horizon. A completed flow is attributed
	// to the phase containing its start time.
	Phases []*Phase `json:"phases"`
}

// Phase is one FCT window of a scenario.
type Phase struct {
	// Name is "pre" or "e<index>:<kind>[+<kind>...]" for the event(s)
	// opening the window.
	Name string `json:"name"`
	// Start (inclusive) and End (exclusive; the horizon for the last phase)
	// bound the window.
	Start units.Time `json:"start"`
	End   units.Time `json:"end"`
	// FCT aggregates slowdowns of background flows that started in the
	// window; Completed counts them. CompletedIncast counts incast-flow
	// completions attributed to the window (their slowdowns stay in the
	// run-level incast collector).
	FCT             *stats.FCTCollector `json:"fct"`
	Completed       int                 `json:"completed"`
	CompletedIncast int                 `json:"completed_incast"`
}

// newMetrics builds the phase windows for a spec over the given horizon.
// Events sharing a timestamp share one window. Streaming makes the phase FCT
// collectors constant-memory sketches, so a streaming-stats run keeps its
// footprint bound through a scenario too.
func newMetrics(spec *Spec, horizon units.Time, streaming bool) *Metrics {
	m := &Metrics{Spec: spec.Name}
	newCollector := func() *stats.FCTCollector {
		if streaming {
			return stats.NewStreamingFCTCollector()
		}
		return stats.NewFCTCollector()
	}
	add := func(name string, start units.Time) {
		if n := len(m.Phases); n > 0 {
			m.Phases[n-1].End = start
		}
		m.Phases = append(m.Phases, &Phase{
			Name:  name,
			Start: start,
			End:   horizon,
			FCT:   newCollector(),
		})
	}
	add("pre", 0)
	for i := 0; i < len(spec.Events); {
		at := spec.Events[i].At
		name := ""
		first := i
		for ; i < len(spec.Events) && spec.Events[i].At == at; i++ {
			if name != "" {
				name += "+"
			}
			name += string(spec.Events[i].Kind)
		}
		add(phaseName(first, name), at)
	}
	return m
}

func phaseName(idx int, kinds string) string {
	return "e" + strconv.Itoa(idx) + ":" + kinds
}

// RecordCompletion attributes one completed flow to the phase containing its
// start time. Background flows contribute their slowdown to the phase's FCT
// collector; incast flows are counted only.
func (m *Metrics) RecordCompletion(start units.Time, size units.Bytes, fct, ideal units.Time, incast bool) {
	ph := m.phaseAt(start)
	if ph == nil {
		return
	}
	if incast {
		ph.CompletedIncast++
		return
	}
	ph.Completed++
	ph.FCT.Record(size, fct, ideal)
}

// phaseAt returns the phase whose [Start, End) window contains t (the last
// phase also absorbs t >= its Start, covering drain-time completions of
// flows started at the horizon boundary).
func (m *Metrics) phaseAt(t units.Time) *Phase {
	for i := len(m.Phases) - 1; i >= 0; i-- {
		if t >= m.Phases[i].Start {
			return m.Phases[i]
		}
	}
	return nil
}
