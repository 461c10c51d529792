package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"

	"bfc/internal/switchsim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// ModelVersion names the simulation model: the code that turns a job's
// declared parameters into its Result. It is mixed first into every job's
// content hash (harness.Job.Hash) and written into every artifact, so a
// result store, -resume and the fleet's dedupe never serve a record another
// model computed. Bump it in any change that moves the output of a run with
// unchanged parameters; testdata/model_version.json pairs it with the golden
// digests, and a test fails when those digests move while it stays.
const ModelVersion = 4

// ResultDigest returns the SHA-256 hex digest of the marshalled Result with
// the Telemetry series excluded. Excluding them makes the digest directly
// comparable between telemetry-enabled and telemetry-disabled runs of the
// same configuration — the determinism contract telemetry must honor — while
// still covering every statistic the figures report. For runs without
// telemetry it is identical to hashing the full marshalled Result. The
// encoding streams into the hash: no copy of it is made.
func ResultDigest(res *Result) (string, error) {
	saved := res.Telemetry
	res.Telemetry = nil
	h := sha256.New()
	err := json.NewEncoder(untilNewline{h}).Encode(res)
	res.Telemetry = saved
	if err != nil {
		return "", err
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// untilNewline writes to w what a json.Encoder writes but the newline it
// ends a value with, so the bytes are json.Marshal's. A compact encoding
// holds no other newline byte (a string escapes it), so the one a write ends
// with is the terminator however the encoder splits its writes.
type untilNewline struct{ w io.Writer }

func (u untilNewline) Write(b []byte) (int, error) {
	if _, err := u.w.Write(bytes.TrimSuffix(b, []byte{'\n'})); err != nil {
		return 0, err
	}
	return len(b), nil
}

// seriesSampler turns the statistics tick into the time-series bundle
// attached to Result.Telemetry: the per-switch buffer occupancy and
// per-link-class pause fraction Fig 17 prints, and the executed events per
// tick. It piggybacks on the one sampling tick the run already takes — no
// additional simulator events are created, so the run's event stream (and its
// golden digest) is identical with sampling on or off.
type seriesSampler struct {
	// executed reads the run's executed-event counter: the shards' counters
	// plus the ticks and scenario events the coordinator applied.
	executed func() uint64

	// Sampling order is fixed at construction (topology order), so the series
	// bundle is byte-stable across reruns and worker counts. swBuffer is
	// indexed like the switch slice sampleTick walks.
	classes []linkClass

	events     *telemetry.Series
	pause      []*telemetry.Series
	swBuffer   []*telemetry.Series
	interval   units.Time
	prevEvents uint64
	prevPause  []units.Time

	out *telemetry.RunSeries
}

// newSeriesSampler builds the sampler over the registry's link classes, one
// buffer series for each of sws; call after buildLinkClasses. executed is the
// run's executed-event counter.
func (g *registry) newSeriesSampler(sws []*switchsim.Switch, interval units.Time, executed func() uint64) *seriesSampler {
	s := &seriesSampler{interval: interval, executed: executed, classes: g.classes}
	s.events = &telemetry.Series{Name: "fabric/events_per_tick"}
	for _, c := range s.classes {
		s.pause = append(s.pause, &telemetry.Series{Name: "links/" + c.key + "/pause_fraction"})
	}
	for _, sw := range sws {
		name := g.topo.Node(sw.ID()).Name
		s.swBuffer = append(s.swBuffer, &telemetry.Series{Name: "switch/" + name + "/buffer_bytes"})
	}
	s.prevPause = make([]units.Time, len(s.classes))

	s.out = &telemetry.RunSeries{Interval: interval}
	s.out.Series = append(s.out.Series, s.events)
	s.out.Series = append(s.out.Series, s.pause...)
	s.out.Series = append(s.out.Series, s.swBuffer...)
	return s
}

// sampleFabric appends one point to the events series and every link-class
// series; sampleTick appends the per-switch points on its switch walk. It only
// reads state.
func (s *seriesSampler) sampleFabric() {
	// Event-scheduler throughput (the eventsim contribution): executed events
	// per sampling tick.
	ev := s.executed()
	s.events.Append(float64(ev - s.prevEvents))
	s.prevEvents = ev

	// Per-link-class PFC pause fraction over the last tick.
	for i, c := range s.classes {
		var paused units.Time
		for _, l := range c.links {
			paused += l.PausedTime()
		}
		s.pause[i].Append(float64(paused-s.prevPause[i]) / (float64(s.interval) * float64(len(c.links))))
		s.prevPause[i] = paused
	}
}

// finish returns the completed bundle.
func (s *seriesSampler) finish() *telemetry.RunSeries { return s.out }
