package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"iter"
	"math/rand"
	"strconv"

	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// Network is the slice of the simulation a fired link event acts on. The sim
// package's device registry implements it: link operations
// mutate the topology's routing tables and the wired links (including the
// pause-state resets at the affected devices), and trace themselves, stamped
// with the event's instant at, into rec (nil on untraced runs).
type Network interface {
	// SetLinkState fails (up=false) or recovers a link, returning the number
	// of next-hop table entries the route recomputation changed.
	SetLinkState(at units.Time, rec telemetry.Recorder, a, b packet.NodeID, up bool) int
	// SetLinkParams applies a degradation to both directions of a link.
	SetLinkParams(at units.Time, rec telemetry.Recorder, a, b packet.NodeID, rate units.Rate, delay units.Time)
}

// Params carries the run context a spec is compiled against.
type Params struct {
	// Topo is the run's (job-local) topology; link names resolve against
	// it, its hosts are the injection endpoints, and the first host's line
	// rate converts load fractions into arrival rates for random shifts.
	Topo *topology.Topology
	// Horizon is Duration+Drain; it closes the last metrics phase.
	Horizon units.Time
	// FirstFlowID is the first free flow ID (above the base trace's).
	FirstFlowID packet.FlowID
	// Streaming puts the per-phase FCT collectors in constant-memory
	// streaming mode (mirroring the run's sim.Options.StreamingStats); false
	// keeps them exact.
	Streaming bool
}

// compiledEvent is one event with names resolved and flows pre-generated.
type compiledEvent struct {
	ev   *Event
	idx  int            // index in the spec's event list
	a, b packet.NodeID  // resolved link endpoints
	flow []*packet.Flow // injected flows (incast, workload shift)
}

// Planned is a compiled scenario that has not been scheduled yet. The sim
// coordinator takes it in two halves. The injected flows are scheduled by the
// shard that owns their source (ScheduleFlows); the one shard of a one-shard
// run owns every host. The events themselves fire at the coordinator's
// barriers (Apply) — with every shard parked, so the shared topology's route
// recomputation is race-free and observed atomically.
type Planned struct {
	topo    *topology.Topology
	metrics *Metrics
	events  []*compiledEvent
}

// Plan validates and compiles spec against p: link endpoint names are
// resolved and every injected flow is pre-generated, so nothing afterwards
// consumes randomness outside the event engine's deterministic order.
func Plan(spec *Spec, p Params) (*Planned, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(p.Topo.Hosts()) < 2 {
		return nil, fmt.Errorf("scenario: need at least 2 hosts")
	}
	pl := &Planned{
		topo:    p.Topo,
		metrics: newMetrics(spec, p.Horizon, p.Streaming),
	}
	nextID := p.FirstFlowID
	var port uint16 = 50000
	for i := range spec.Events {
		ce, err := compileEvent(spec, i, p, &nextID, &port)
		if err != nil {
			return nil, err
		}
		ce.idx = i
		pl.events = append(pl.events, ce)
	}
	return pl, nil
}

// Metrics returns the metrics the planned scenario's events update. The
// caller owns the merge of its runners' counters (InjectedFlows, stranding)
// into it.
func (pl *Planned) Metrics() *Metrics { return pl.metrics }

// EventTimes returns the distinct fire instants of the compiled events, in
// ascending order, truncated to the horizon (inclusive — an event at exactly
// the horizon still fires). The coordinator adds them to its barrier set.
func (pl *Planned) EventTimes(horizon units.Time) []units.Time {
	var times []units.Time
	for _, ce := range pl.events {
		if ce.ev.At > horizon {
			break // events are time-ordered
		}
		if n := len(times); n == 0 || times[n-1] != ce.ev.At {
			times = append(times, ce.ev.At)
		}
	}
	return times
}

// ScheduleFlows schedules every pre-generated injected flow whose source
// owned() claims, invoking start as each fires. Injected flows are causal
// roots exactly like base-trace flows: tagging the start event with the flow
// ID orders same-key descendants of a simultaneous burst by flow creation
// order on every shard (IDs ascend in compile order), and keeps every flow's
// key distinct from the untagged setup key the events apply under. The caller
// counts injections itself and merges the count into Metrics.InjectedFlows.
func (pl *Planned) ScheduleFlows(sched *eventsim.Scheduler, owned func(packet.NodeID) bool, start func(*packet.Flow)) {
	call := func(x any) { start(x.(*packet.Flow)) }
	for f := range pl.Flows() {
		if owned(f.Src) {
			sched.ScheduleCallTagged(f.StartTime, uint64(f.ID), call, f)
		}
	}
}

// Flows yields every pre-generated injected flow in compile order, which is
// ascending ID order.
func (pl *Planned) Flows() iter.Seq[*packet.Flow] {
	return func(yield func(*packet.Flow) bool) {
		for _, ce := range pl.events {
			for _, f := range ce.flow {
				if !yield(f) {
					return
				}
			}
		}
	}
}

// Apply fires every compiled event scheduled at instant t, in spec order, and
// returns their number — each counts as one event of the run.
func (pl *Planned) Apply(t units.Time, net Network, rec telemetry.Recorder) int {
	fired := 0
	for _, ce := range pl.events {
		if ce.ev.At == t {
			pl.fire(ce, net, rec)
			fired++
		}
	}
	return fired
}

// fire is one scenario event happening: the applied-event counter and the
// KindScenario trace record first (rec is nil on untraced runs), then the
// kind-specific network mutation, whose own trace records the Network
// implementation emits. For link events the record's Node carries the
// resolved A endpoint; injections leave it zero and only mark the event
// applied — their flows were scheduled by ScheduleFlows. The event's spec
// index rides in Value so traces can be matched back to the spec.
func (pl *Planned) fire(ce *compiledEvent, net Network, rec telemetry.Recorder) {
	at := ce.ev.At
	pl.metrics.EventsApplied++
	if rec != nil {
		rec.Record(telemetry.Event{
			At:    at,
			Kind:  telemetry.KindScenario,
			Node:  ce.a,
			Port:  -1,
			Queue: -1,
			Value: int64(ce.idx),
		})
	}
	switch ce.ev.Kind {
	case LinkDown, LinkUp:
		pl.metrics.Reroutes += net.SetLinkState(at, rec, ce.a, ce.b, ce.ev.Kind == LinkUp)
	case LinkDegrade:
		// Zero fields mean "keep the current value": resolve them at fire
		// time, so stacked degrades compose instead of a later event silently
		// reverting an earlier one.
		rate, del := ce.ev.Degrade.Rate, ce.ev.Degrade.Delay
		pa, _, _ := pl.topo.LinkBetween(ce.a, ce.b)
		cur := pl.topo.Node(ce.a).Ports[pa]
		if rate == 0 {
			rate = cur.Rate
		}
		if del == 0 {
			del = cur.Delay
		}
		net.SetLinkParams(at, rec, ce.a, ce.b, rate, del)
	}
}

// compileEvent resolves one event against the topology and pre-generates its
// injected flows.
func compileEvent(spec *Spec, i int, p Params, nextID *packet.FlowID, port *uint16) (*compiledEvent, error) {
	e := &spec.Events[i]
	ce := &compiledEvent{ev: e}
	hosts := p.Topo.Hosts()
	switch e.Kind {
	case LinkDown, LinkUp, LinkDegrade:
		a, ok := p.Topo.NodeByName(e.Link.A)
		if !ok {
			return nil, fmt.Errorf("scenario: event %d: unknown node %q", i, e.Link.A)
		}
		b, ok := p.Topo.NodeByName(e.Link.B)
		if !ok {
			return nil, fmt.Errorf("scenario: event %d: unknown node %q", i, e.Link.B)
		}
		if _, _, ok := p.Topo.LinkBetween(a, b); !ok {
			return nil, fmt.Errorf("scenario: event %d: no link %s", i, e.Link)
		}
		if e.Kind != LinkDegrade {
			na, nb := p.Topo.Node(a), p.Topo.Node(b)
			if na.Kind != topology.Switch || nb.Kind != topology.Switch {
				return nil, fmt.Errorf("scenario: event %d: %s is a host uplink — only switch-switch links may fail", i, e.Link)
			}
		}
		ce.a, ce.b = a, b
	case Incast:
		rng := eventRNG(spec, i)
		victimIdx := -1
		if e.Incast.Victim != "" {
			id, ok := p.Topo.NodeByName(e.Incast.Victim)
			if !ok {
				return nil, fmt.Errorf("scenario: event %d: unknown victim %q", i, e.Incast.Victim)
			}
			for hi, h := range hosts {
				if h == id {
					victimIdx = hi
					break
				}
			}
			if victimIdx < 0 {
				return nil, fmt.Errorf("scenario: event %d: victim %q is not a host", i, e.Incast.Victim)
			}
		} else {
			victimIdx = rng.Intn(len(hosts))
		}
		ce.flow = workload.IncastBurst(rng, hosts, victimIdx, e.Incast.FanIn,
			e.Incast.AggregateSize, e.At, *nextID, *port)
	case WorkloadShift:
		rng := eventRNG(spec, i)
		switch e.Shift.Pattern {
		case PatternRandom:
			cdf, err := workload.ByName(e.Shift.CDFName)
			if err != nil {
				return nil, fmt.Errorf("scenario: event %d: %w", i, err)
			}
			tr, err := workload.Generate(workload.Config{
				Hosts:    hosts,
				CDF:      cdf,
				Load:     e.Shift.Load,
				HostRate: p.Topo.HostRate(hosts[0]),
				Duration: e.Shift.Duration,
				Seed:     rng.Int63(),
				BasePort: *port,
			})
			if err != nil {
				return nil, fmt.Errorf("scenario: event %d: %w", i, err)
			}
			for _, f := range tr.Flows {
				f.StartTime += e.At
			}
			ce.flow = tr.Flows
		case PatternPermutation:
			ce.flow = workload.Permutation(rng, hosts, e.Shift.FlowSize, e.At, *nextID, *port)
		case PatternAllToAll:
			ce.flow = workload.AllToAll(hosts, e.Shift.FlowSize, e.At, *nextID, *port)
		}
	}
	// Re-number injected flows into the scenario's ID space and advance the
	// shared port counter past the ports the burst consumed.
	for _, f := range ce.flow {
		f.ID = *nextID
		*nextID++
		*port++
		if *port < 50000 {
			*port = 50000
		}
	}
	return ce, nil
}

// eventRNG derives the deterministic RNG of one event from the spec alone
// (name, seed, event index) — never from the simulation seed. That makes
// injected traffic a pure function of the spec, so every scheme of a
// comparison grid sees byte-identical storms and shifts (the sim seed still
// differs per job and drives everything else), and edits to other events
// never perturb an event's own traffic.
func eventRNG(spec *Spec, idx int) *rand.Rand {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(spec.Seed))
	h.Write(buf[:])
	h.Write([]byte(spec.Name))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(idx)))
	sum := h.Sum(nil)
	v := binary.BigEndian.Uint64(sum[:8]) &^ (1 << 63)
	if v == 0 {
		v = 1
	}
	return rand.New(rand.NewSource(int64(v)))
}
