package experiments

// Figure 17 (companion figure, not in the paper): congestion dynamics through
// an incast, per scheme. It exercises the telemetry plane end to end — the
// per-run flight recorder captures the control-plane events (pauses, queue
// assignments, drops) while the series sampler captures the data-plane
// time-series (goodput, buffer occupancy, pause fractions) — and renders both
// as a table. It is the observability analogue of Fig 6: instead of scalar
// pause-time totals, the full trajectory.

import (
	"fmt"
	"strings"

	"bfc/internal/harness"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// Fig17Row is one scheme's congestion-dynamics trajectory.
type Fig17Row struct {
	Scheme string
	// Series is the run's sampled time-series bundle (goodput, utilization,
	// pause fractions, per-switch occupancy).
	Series *telemetry.RunSeries
	// EventsSeen counts the events the flight recorder observed.
	EventsSeen uint64
	// PeakBuffer is the maximum shared-buffer occupancy across switches.
	PeakBuffer units.Bytes
	// PeakPauseFraction is the worst per-link-class pause fraction sampled in
	// any tick.
	PeakPauseFraction float64
	// PauseEvents counts PFC + BFC pause edges the recorder retained.
	PauseEvents int
	// QueueAssignments counts BFC dynamic queue assignments (0 for others).
	QueueAssignments int
	// Drops counts recorded admission drops.
	Drops int
	// P99 is the overall p99 FCT slowdown, tying the trajectory back to the
	// headline metric.
	P99 float64
}

// fig17RingCapacity sizes the flight-recorder ring of a Fig 17 job (the table
// entry's TraceRing).
const fig17RingCapacity = 1 << 17

// Fig17Jobs declares one job per scheme on the Fig 5a-shaped incast workload
// with the series sampler on. Schemes defaults to BFC and the two
// PFC-backstopped baselines. The sampled series travel in the Result; the
// flight recorder's ring does not, so each job records into a ring of its
// own and its Extract hook condenses it, in-worker, into the event counts the
// figure prints. Extract reads the ring back from the run's options, so a
// caller that wants the raw events as well (bfcsim -fig 17 -trace-dir, a
// traced service suite) appends a mutator that swaps in a ring it holds; the
// counts cover the ring's retained window, which is every event unless the
// ring wrapped.
func Fig17Jobs(scale Scale, schemes []sim.Scheme) []harness.Job {
	if schemes == nil {
		schemes = []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN, sim.SchemeHPCC}
	}
	p := scale.traffic(scale.t1(), "google", 0.60, true, harness.DeriveSeed("fig17", scale.Name, "workload"))
	p.SimSeed, p.Series = &defaultSeed, true
	return p.grid(scale.Name+"/fig17", scale.labels("fig17"), schemes)
}

// ringCounts is a Fig 17 job's Extract: the event counts of the run's ring.
func ringCounts(ring *telemetry.Ring) map[string]float64 {
	var pauses, assigns, drops float64
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case telemetry.KindPFCPause, telemetry.KindBFCPause:
			pauses++
		case telemetry.KindQueueAssign:
			assigns++
		case telemetry.KindDrop:
			drops++
		}
	}
	return map[string]float64{
		"events_seen":   float64(ring.Seen()),
		"pause_events":  pauses,
		"queue_assigns": assigns,
		"drops":         drops,
	}
}

// Fig17FromRecords assembles the trajectories from harness records.
func Fig17FromRecords(recs []*harness.Record) []Fig17Row {
	rows := make([]Fig17Row, 0, len(recs))
	for _, rec := range recs {
		if _, ok := rec.Extra["events_seen"]; !ok {
			panic(fmt.Sprintf("experiments: record %q lacks the flight-recorder counts", rec.Name))
		}
		row := Fig17Row{
			Scheme:           rec.Scheme,
			Series:           rec.Result.Telemetry,
			EventsSeen:       uint64(rec.Extra["events_seen"]),
			PauseEvents:      int(rec.Extra["pause_events"]),
			QueueAssignments: int(rec.Extra["queue_assigns"]),
			Drops:            int(rec.Extra["drops"]),
			P99:              rec.Result.FCT.OverallPercentile(99),
		}
		buffers, pauses := fig17Series(row.Series)
		for _, s := range buffers {
			row.PeakBuffer = max(row.PeakBuffer, units.Bytes(s.Max()))
		}
		for _, s := range pauses {
			row.PeakPauseFraction = max(row.PeakPauseFraction, s.Max())
		}
		rows = append(rows, row)
	}
	return rows
}

// fig17Series picks out the per-switch buffer-occupancy and per-link-class
// pause-fraction series of a run.
func fig17Series(rs *telemetry.RunSeries) (buffers, pauses []*telemetry.Series) {
	for _, s := range rs.Series {
		switch {
		case strings.HasPrefix(s.Name, "switch/") && strings.HasSuffix(s.Name, "/buffer_bytes"):
			buffers = append(buffers, s)
		case strings.HasPrefix(s.Name, "links/") && strings.HasSuffix(s.Name, "/pause_fraction"):
			pauses = append(pauses, s)
		}
	}
	return buffers, pauses
}

// Fig17Timeline condenses one row's trajectory to n evenly spaced points of
// (time, max switch buffer occupancy, max pause fraction), for the text
// rendering of the figure.
func Fig17Timeline(row Fig17Row, n int) []Fig17TimelinePoint {
	if row.Series == nil || n <= 0 {
		return nil
	}
	buffers, pauses := fig17Series(row.Series)
	maxLen := 0
	for _, s := range row.Series.Series {
		maxLen = max(maxLen, len(s.Samples))
	}
	if maxLen == 0 {
		return nil
	}
	if n > maxLen {
		n = maxLen
	}
	points := make([]Fig17TimelinePoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (maxLen - 1) / max(n-1, 1)
		p := Fig17TimelinePoint{}
		for _, s := range buffers {
			if idx < len(s.Samples) {
				p.At = s.At(idx)
				if b := units.Bytes(s.Samples[idx]); b > p.Buffer {
					p.Buffer = b
				}
			}
		}
		for _, s := range pauses {
			if idx < len(s.Samples) && s.Samples[idx] > p.PauseFraction {
				p.PauseFraction = s.Samples[idx]
			}
		}
		points = append(points, p)
	}
	return points
}

// Fig17TimelinePoint is one condensed timeline sample.
type Fig17TimelinePoint struct {
	At            units.Time
	Buffer        units.Bytes
	PauseFraction float64
}
