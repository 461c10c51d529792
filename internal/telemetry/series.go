package telemetry

import "bfc/internal/units"

// Series is one uniformly spaced time series: one sample per tick of its
// bundle's Interval, starting at sim time 0.
type Series struct {
	// Name identifies the series ("switch/tor0/buffer_bytes", ...).
	Name string `json:"name"`
	// Samples are the values, oldest first.
	Samples []float64 `json:"samples"`
}

// Append adds the next tick's sample.
func (s *Series) Append(v float64) { s.Samples = append(s.Samples, v) }

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
	// Interval is the sampling cadence of every series.
	Interval units.Time `json:"interval"`
	// Series are the sampled series, in a deterministic construction order.
	Series []*Series `json:"series"`
}

// At returns the sim time of every series' sample i.
func (rs *RunSeries) At(i int) units.Time { return units.Time(i) * rs.Interval }
