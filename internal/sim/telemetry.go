package sim

import (
	"crypto/sha256"
	"encoding/hex"

	"bfc/internal/stats"
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
// encoding streams into the hash through one fixed buffer (writeDigestJSON),
// so what the digest allocates does not grow with the run's samples.
func ResultDigest(res *Result) (string, error) {
	h := sha256.New()
	w := stats.NewJSONWriter(h)
	res.writeDigestJSON(&w)
	if err := w.Flush(); err != nil {
		return "", err
	}
	var sum [sha256.Size]byte
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], h.Sum(sum[:0]))
	return string(digest[:]), nil
}

// writeDigestJSON writes json.Marshal's bytes for res without its Telemetry:
// Result's fields in declaration order, under their names, Scenario omitted
// when nil, Sharding and Exec never. The map and Scenario go through
// encoding/json, which escapes the '>' of a link class ("ToR->Spine") as
// \u003e. TestResultDigestIsEncodingJSONs holds the bytes to encoding/json's.
func (res *Result) writeDigestJSON(w *stats.JSONWriter) {
	w.Int(`{"Scheme":`, int64(res.Scheme))
	w.FCTCollector(`,"FCT":`, res.FCT)
	w.FCTCollector(`,"FCTIncast":`, res.FCTIncast)
	w.Int(`,"FlowsTotal":`, int64(res.FlowsTotal))
	w.Int(`,"FlowsCompleted":`, int64(res.FlowsCompleted))
	w.Distribution(`,"BufferOccupancy":`, &res.BufferOccupancy)
	w.Int(`,"MaxBufferOccupancy":`, int64(res.MaxBufferOccupancy))
	w.Int(`,"MaxPhysicalQueueBytes":`, int64(res.MaxPhysicalQueueBytes))
	w.Distribution(`,"OccupiedQueues":`, &res.OccupiedQueues)
	w.Float(`,"Utilization":`, res.Utilization)
	w.Float(`,"ReceiverUtilization":`, res.ReceiverUtilization)
	w.Marshal(`,"PauseTimeFraction":`, res.PauseTimeFraction)
	w.Uint(`,"Drops":`, res.Drops)
	w.Uint(`,"ECNMarks":`, res.ECNMarks)
	w.Uint(`,"PFCPauses":`, res.PFCPauses)
	w.Uint(`,"BFCFrames":`, res.BFCFrames)
	w.Uint(`,"Assignments":`, res.Assignments)
	w.Uint(`,"CollidedAssignments":`, res.CollidedAssignments)
	w.Uint(`,"VFIDCollisions":`, res.VFIDCollisions)
	w.Uint(`,"TableOverflowPackets":`, res.TableOverflowPackets)
	w.Uint(`,"DataPackets":`, res.DataPackets)
	w.Uint(`,"Pauses":`, res.Pauses)
	w.Uint(`,"Resumes":`, res.Resumes)
	w.Int(`,"MaxActiveFlows":`, int64(res.MaxActiveFlows))
	w.Uint(`,"Events":`, res.Events)
	w.Int(`,"Elapsed":`, int64(res.Elapsed))
	if res.Scenario != nil {
		w.Marshal(`,"Scenario":`, res.Scenario)
	}
	w.Raw("}")
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
