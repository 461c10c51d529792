package experiments

// Figure 17 (companion figure, not in the paper): congestion dynamics through
// an incast, per scheme. The series sampler captures the data-plane time
// series (per-switch buffer occupancy, per-link-class pause fractions) and
// the run's device counters total the control plane (PFC and BFC pauses,
// queue assignments, drops); the figure renders both as a table. It is the
// observability analogue of Fig 6: instead of scalar pause-time totals, the
// full trajectory. The flight recorder only observes: bfcsim -fig 17 -trace-dir
// exports the same runs' raw events, and no number printed here reads them.

import (
	"strings"

	"bfc/internal/harness"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// Fig17Row is one scheme's congestion-dynamics trajectory.
type Fig17Row struct {
	Scheme string
	// Series is the run's sampled time-series bundle: per-switch occupancy,
	// per-link-class pause fractions and events per tick. An older record's
	// bundle may carry more series; the figure reads only the first two kinds.
	Series *telemetry.RunSeries
	// PeakBuffer is the maximum shared-buffer occupancy across switches and
	// ticks (Result.MaxBufferOccupancy, the maximum of the buffer series).
	PeakBuffer units.Bytes
	// PeakPauseFraction is the worst per-link-class pause fraction sampled in
	// any tick.
	PeakPauseFraction float64
	// PFCPauses counts PFC pause frames sent (Result.PFCPauses).
	PFCPauses uint64
	// BFCPauses counts BFC per-flow pauses (Result.Pauses; 0 for others).
	BFCPauses uint64
	// QueueAssignments counts BFC dynamic queue assignments
	// (Result.Assignments; 0 for others).
	QueueAssignments uint64
	// Drops counts admission drops (Result.Drops).
	Drops uint64
	// P99 is the overall p99 FCT slowdown, tying the trajectory back to the
	// headline metric.
	P99 float64
}

// fig17RingCapacity sizes the flight-recorder ring bfcsim -fig 17 -trace-dir
// exports per job (the table entry's TraceRing).
const fig17RingCapacity = 1 << 17

// Fig17Jobs declares one job per scheme on the Fig 5a-shaped incast workload
// with the series sampler on. Schemes defaults to BFC and the two
// PFC-backstopped baselines. Everything the figure prints travels in the
// Result: the sampled series and the run's counter totals.
func Fig17Jobs(scale Scale, schemes []sim.Scheme) []harness.Job {
	if schemes == nil {
		schemes = []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN, sim.SchemeHPCC}
	}
	p := scale.traffic(scale.t1(), "google", 0.60, true, harness.DeriveSeed("fig17", scale.Name, "workload"))
	p.SimSeed, p.Series = &defaultSeed, true
	return p.grid(scale.Name+"/fig17", scale.labels("fig17"), schemes)
}

// Fig17FromRecords assembles the trajectories from harness records.
func Fig17FromRecords(recs []*harness.Record) []Fig17Row {
	rows := make([]Fig17Row, 0, len(recs))
	for _, rec := range recs {
		res := rec.Result
		row := Fig17Row{
			Scheme:           rec.Scheme,
			Series:           res.Telemetry,
			PeakBuffer:       res.MaxBufferOccupancy,
			PFCPauses:        res.PFCPauses,
			BFCPauses:        res.Pauses,
			QueueAssignments: res.Assignments,
			Drops:            res.Drops,
			P99:              res.FCT.OverallPercentile(99),
		}
		_, pauses := fig17Series(row.Series)
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
				p.At = row.Series.At(idx)
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
