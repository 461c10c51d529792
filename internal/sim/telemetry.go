package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"bfc/internal/nic"
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
const ModelVersion = 1

// ResultDigest returns the SHA-256 hex digest of the marshalled Result with
// the Telemetry series excluded. Excluding them makes the digest directly
// comparable between telemetry-enabled and telemetry-disabled runs of the
// same configuration — the determinism contract telemetry must honor — while
// still covering every statistic the figures report. For runs without
// telemetry it is identical to hashing the full marshalled Result.
func ResultDigest(res *Result) (string, error) {
	saved := res.Telemetry
	res.Telemetry = nil
	blob, err := json.Marshal(res)
	res.Telemetry = saved
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// seriesSampler turns the statistics tick into the bounded time-series
// bundle attached to Result.Telemetry. It piggybacks on the one sampling tick
// the run already takes — no additional simulator events are created, so the
// run's event stream (and its golden digest) is identical with sampling on or
// off.
type seriesSampler struct {
	// executed reads the run's executed-event counter: the shards' counters
	// plus the ticks and scenario events the coordinator applied.
	executed func() uint64

	// Sampling order is fixed at construction (topology order), so the series
	// bundle is byte-stable across reruns and worker counts. swBuffer and
	// swMaxQ are indexed like the switch slice sampleTick walks.
	nics    []*nic.NIC
	classes []linkClass

	goodput    *telemetry.Series
	active     *telemetry.Series
	events     *telemetry.Series
	util       []*telemetry.Series
	pause      []*telemetry.Series
	swBuffer   []*telemetry.Series
	swMaxQ     []*telemetry.Series
	interval   units.Time
	prevDeliv  units.Bytes
	prevEvents uint64
	prevBusy   []units.Time
	prevPause  []units.Time

	out *telemetry.RunSeries
}

// newSeriesSampler builds the sampler over the registry's devices and link
// classes, one per-switch series pair for each of sws; call after
// buildLinkClasses. executed is the run's executed-event counter.
func (g *registry) newSeriesSampler(sws []*switchsim.Switch, interval units.Time, executed func() uint64) *seriesSampler {
	const capacity = telemetry.DefaultSeriesCap
	s := &seriesSampler{interval: interval, executed: executed, classes: g.classes}
	for _, n := range g.nics {
		if n != nil {
			s.nics = append(s.nics, n)
		}
	}
	for _, sw := range sws {
		name := g.topo.Node(sw.ID()).Name
		s.swBuffer = append(s.swBuffer,
			telemetry.NewSeries("switch/"+name+"/buffer_bytes", 0, interval, capacity))
		s.swMaxQ = append(s.swMaxQ,
			telemetry.NewSeries("switch/"+name+"/max_queue_bytes", 0, interval, capacity))
	}

	s.goodput = telemetry.NewSeries("fabric/goodput_gbps", 0, interval, capacity)
	s.active = telemetry.NewSeries("fabric/active_flows", 0, interval, capacity)
	s.events = telemetry.NewSeries("fabric/events_per_tick", 0, interval, capacity)
	for _, c := range s.classes {
		s.util = append(s.util,
			telemetry.NewSeries("links/"+c.key+"/utilization", 0, interval, capacity))
		s.pause = append(s.pause,
			telemetry.NewSeries("links/"+c.key+"/pause_fraction", 0, interval, capacity))
	}
	s.prevBusy = make([]units.Time, len(s.classes))
	s.prevPause = make([]units.Time, len(s.classes))

	s.out = &telemetry.RunSeries{Interval: interval}
	s.out.Series = append(s.out.Series, s.goodput, s.active, s.events)
	s.out.Series = append(s.out.Series, s.util...)
	s.out.Series = append(s.out.Series, s.pause...)
	for i := range s.swBuffer {
		s.out.Series = append(s.out.Series, s.swBuffer[i], s.swMaxQ[i])
	}
	return s
}

// sampleFabric appends one point to every fabric and link-class series;
// sampleTick appends the per-switch points on its switch walk. It only reads
// state.
func (s *seriesSampler) sampleFabric() {
	// Fabric goodput: delta of in-order delivered payload bytes across NICs.
	var delivered units.Bytes
	activeFlows := 0
	for _, n := range s.nics {
		delivered += n.Stats().DeliveredBytes
		activeFlows += n.ActiveSenders()
	}
	gbps := float64((delivered-s.prevDeliv)*8) / (float64(units.Gbps) * s.interval.Seconds())
	s.prevDeliv = delivered
	s.goodput.Append(gbps)
	s.active.Append(float64(activeFlows))

	// Event-scheduler throughput (the eventsim contribution): executed events
	// per sampling tick.
	ev := s.executed()
	s.events.Append(float64(ev - s.prevEvents))
	s.prevEvents = ev

	// Per-link-class utilization and PFC pause fraction over the last tick.
	for i, c := range s.classes {
		var busy, paused units.Time
		for _, l := range c.links {
			busy += l.BusyTime()
			paused += l.PausedTime()
		}
		denom := float64(s.interval) * float64(len(c.links))
		s.util[i].Append(float64(busy-s.prevBusy[i]) / denom)
		s.pause[i].Append(float64(paused-s.prevPause[i]) / denom)
		s.prevBusy[i] = busy
		s.prevPause[i] = paused
	}
}

// finish returns the completed bundle.
func (s *seriesSampler) finish() *telemetry.RunSeries { return s.out }
