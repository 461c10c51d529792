package telemetry

import (
	"fmt"

	"bfc/internal/units"
)

// DefaultSeriesCap bounds a series' sample count. It reuses the statistics
// sketch capacity (stats.DefaultSketchSize = 4096) as the memory budget: a
// full fat-tree run at the stretched sampling cadence stays under it, and
// longer runs degrade resolution instead of growing memory.
const DefaultSeriesCap = 4096

// Series is one bounded, uniformly spaced time series. Samples are appended
// at a fixed cadence; when the capacity is reached the series deterministically
// halves its resolution (adjacent samples are averaged and the interval
// doubles), so memory stays constant while the full time range is kept. This
// is the time-ordered analogue of the reservoir sketch the statistics layer
// uses: bounded memory, deterministic contents.
type Series struct {
	// Name identifies the series ("switch/tor0/buffer_bytes", ...).
	Name string `json:"name"`
	// Start is the sim time of the first sample.
	Start units.Time `json:"start"`
	// Interval is the current spacing between samples (it doubles on each
	// resolution halving).
	Interval units.Time `json:"interval"`
	// Samples are the values, oldest first.
	Samples []float64 `json:"samples"`

	cap  int
	base units.Time
	// pending accumulates raw samples while the series is decimated (each
	// stored sample then averages Interval/base raw ticks).
	pending  float64
	pendingN int
}

// NewSeries creates a bounded series (DefaultSeriesCap when cap <= 0). The
// capacity is rounded up to even so halving is exact.
func NewSeries(name string, start, interval units.Time, capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	if capacity%2 == 1 {
		capacity++
	}
	return &Series{Name: name, Start: start, Interval: interval, base: interval, cap: capacity}
}

// Append adds one sample at the base cadence. Callers must append every tick;
// the series itself decides how many raw samples fold into one stored value.
func (s *Series) Append(v float64) {
	if len(s.Samples) == s.cap {
		// Halve resolution: average adjacent pairs in place.
		half := len(s.Samples) / 2
		for i := 0; i < half; i++ {
			s.Samples[i] = (s.Samples[2*i] + s.Samples[2*i+1]) / 2
		}
		s.Samples = s.Samples[:half]
		s.Interval *= 2
		s.pendingN = 0
	}
	// While decimated, fold 2^k raw samples into each stored one so the
	// cadence stays uniform.
	fold := int(s.Interval / s.baseInterval())
	if fold <= 1 {
		s.Samples = append(s.Samples, v)
		return
	}
	if s.pendingN == 0 {
		s.pending = v
	} else {
		s.pending += v
	}
	s.pendingN++
	if s.pendingN == fold {
		s.Samples = append(s.Samples, s.pending/float64(s.pendingN))
		s.pendingN = 0
	}
}

func (s *Series) baseInterval() units.Time { return s.base }

// At returns the sim time of sample i.
func (s *Series) At(i int) units.Time {
	return s.Start + units.Time(i)*s.Interval
}

// Max returns the largest sample (0 for an empty series).
func (s *Series) Max() float64 {
	var max float64
	for _, v := range s.Samples {
		if v > max {
			max = v
		}
	}
	return max
}

// RunSeries is the bundle of time series one run produced, attached to
// sim.Result when sampling is enabled (and omitted from its JSON otherwise,
// keeping untraced results byte-identical to pre-telemetry ones).
type RunSeries struct {
	// Interval is the base sampling cadence all series started from.
	Interval units.Time `json:"interval"`
	// Series are the sampled series, in a deterministic construction order.
	Series []*Series `json:"series"`
}

// String summarizes the bundle for logs.
func (rs *RunSeries) String() string {
	n := 0
	for _, s := range rs.Series {
		n += len(s.Samples)
	}
	return fmt.Sprintf("%d series, %d samples @%v base", len(rs.Series), n, rs.Interval)
}
