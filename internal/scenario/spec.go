// Package scenario implements deterministic mid-run fault and
// traffic-dynamics injection for the simulator: link failure and recovery
// (with incremental ECMP reroute in internal/topology), link degradation
// (rate/latency change), synchronized incast storms, and mid-run workload
// shifts (random background bursts, permutation traffic, all-to-all
// shuffles).
//
// A scenario is an ordered list of timestamped events (a Spec), declared in
// Go or as JSON. The sim engines compile a Spec through Plan against the
// run's topology — resolving node names, generating every injected flow up
// front from seeds derived from (spec name, spec seed, event index) — and
// schedule one event per action and per injected flow on the existing event
// engine (see Planned). Injected traffic is deliberately a pure function of the spec
// alone, never of the simulation seed: every scheme in a comparison grid
// sees byte-identical storms and shifts, and a scenario run is
// byte-identical across repetitions and worker counts.
//
// Results gain per-scenario metrics (Metrics): reroute counts from each
// topology recomputation, packets stranded on failed links, and FCT windows
// that split flow completions into the phases before/between/after the
// events.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"bfc/internal/units"
	"bfc/internal/workload"
)

// Kind names a scenario event type.
type Kind string

// The event kinds.
const (
	// LinkDown fails the link named by Event.Link.
	LinkDown Kind = "link_down"
	// LinkUp recovers a previously failed link.
	LinkUp Kind = "link_up"
	// LinkDegrade changes the rate and/or delay of a link in place. A BFC
	// switch keeps the HRTT and τ it derived from its ports when it was built
	// (they are not re-derived); a flow that starts after the event takes its
	// window from the degraded path.
	LinkDegrade Kind = "link_degrade"
	// Incast injects one synchronized N-to-1 incast storm.
	Incast Kind = "incast"
	// WorkloadShift injects a burst of additional traffic: a random
	// background burst at a target load, a permutation pattern, or an
	// all-to-all shuffle.
	WorkloadShift Kind = "workload_shift"
)

// Spec declares one scenario: a name, a seed decorrelating its random choices
// from the base workload's, and the ordered events. Specs are immutable once
// built and safe to share across parallel runs.
type Spec struct {
	Name string
	// Seed is folded into every derived RNG seed, so two specs with the same
	// events but different seeds inject different (but each reproducible)
	// traffic.
	Seed int64
	// Events must be ordered by non-decreasing At.
	Events []Event
}

// Event is one timestamped action.
type Event struct {
	// At is the simulation time the event fires.
	At units.Time
	// Kind selects the action; exactly the fields that kind needs are set.
	Kind Kind
	// Link names the affected link for LinkDown/LinkUp/LinkDegrade.
	Link *LinkRef
	// Degrade carries the new link parameters for LinkDegrade.
	Degrade *DegradeSpec
	// Incast parameterizes an Incast event.
	Incast *IncastSpec
	// Shift parameterizes a WorkloadShift event.
	Shift *ShiftSpec
}

// LinkRef names a link by its endpoint node names (topology construction
// names, e.g. "tor0" / "spine1").
type LinkRef struct {
	A, B string
}

func (l LinkRef) String() string { return l.A + "<->" + l.B }

// DegradeSpec is the target state of a degraded link. Zero fields keep the
// link's current value.
type DegradeSpec struct {
	Rate  units.Rate
	Delay units.Time
}

// IncastSpec parameterizes one injected incast storm.
type IncastSpec struct {
	// FanIn is the number of senders; AggregateSize is split evenly among
	// them.
	FanIn         int
	AggregateSize units.Bytes
	// Victim optionally names the receiving host; empty picks one at random
	// (deterministically, from the derived seed).
	Victim string
}

// Pattern selects the traffic shape of a WorkloadShift.
type Pattern string

// The workload-shift patterns.
const (
	// PatternRandom is a background burst: the usual random-pairs workload at
	// Load for Duration.
	PatternRandom Pattern = "random"
	// PatternPermutation starts one flow per host along a random cyclic
	// permutation.
	PatternPermutation Pattern = "permutation"
	// PatternAllToAll starts a full shuffle: every host to every other host.
	PatternAllToAll Pattern = "alltoall"
)

// ShiftSpec parameterizes a WorkloadShift event.
type ShiftSpec struct {
	Pattern Pattern
	// Load and CDFName ("google", "fb_hadoop", "websearch") and Duration
	// apply to PatternRandom.
	Load     float64
	CDFName  string
	Duration units.Time
	// FlowSize is the per-flow size for PatternPermutation and
	// PatternAllToAll.
	FlowSize units.Bytes
}

// MaxSpecEvents bounds a spec's event count. Specs cross trust boundaries —
// the service daemon accepts them over HTTP — so validation rejects inputs
// sized to exhaust the compiler rather than describe an experiment.
const MaxSpecEvents = 4096

// maxSpecString bounds every free-form string in the wire form (names, link
// endpoints, victims).
const maxSpecString = 256

// Validate checks spec-internal consistency: event ordering, per-kind
// parameters, and link up/down pairing. Name resolution against a concrete
// topology happens at Plan time.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if len(s.Name) > maxSpecString {
		return fmt.Errorf("scenario: spec name longer than %d bytes", maxSpecString)
	}
	if len(s.Events) > MaxSpecEvents {
		return fmt.Errorf("scenario: %d events exceed the %d-event limit", len(s.Events), MaxSpecEvents)
	}
	linkDown := map[string]bool{}
	var prev units.Time
	for i := range s.Events {
		e := &s.Events[i]
		if e.At < 0 {
			return fmt.Errorf("scenario: event %d fires at negative time %v", i, e.At)
		}
		if e.At < prev {
			return fmt.Errorf("scenario: event %d at %v is before event %d at %v — events must be time-ordered",
				i, e.At, i-1, prev)
		}
		prev = e.At
		switch e.Kind {
		case LinkDown, LinkUp, LinkDegrade:
			if e.Link == nil || e.Link.A == "" || e.Link.B == "" {
				return fmt.Errorf("scenario: event %d (%s) needs a link reference", i, e.Kind)
			}
			if len(e.Link.A) > maxSpecString || len(e.Link.B) > maxSpecString {
				return fmt.Errorf("scenario: event %d link endpoint name longer than %d bytes", i, maxSpecString)
			}
			key := canonicalLink(e.Link.A, e.Link.B)
			switch e.Kind {
			case LinkDown:
				if linkDown[key] {
					return fmt.Errorf("scenario: event %d fails link %s twice", i, e.Link)
				}
				linkDown[key] = true
			case LinkUp:
				if !linkDown[key] {
					return fmt.Errorf("scenario: event %d recovers link %s that is not down", i, e.Link)
				}
				linkDown[key] = false
			case LinkDegrade:
				if e.Degrade == nil || (e.Degrade.Rate == 0 && e.Degrade.Delay == 0) {
					return fmt.Errorf("scenario: event %d (link_degrade) needs a rate or delay", i)
				}
				if e.Degrade.Rate < 0 || e.Degrade.Delay < 0 {
					return fmt.Errorf("scenario: event %d has negative link parameters", i)
				}
			}
		case Incast:
			if e.Incast == nil || e.Incast.FanIn < 1 || e.Incast.AggregateSize <= 0 {
				return fmt.Errorf("scenario: event %d (incast) needs fan-in >= 1 and a positive aggregate size", i)
			}
			if len(e.Incast.Victim) > maxSpecString {
				return fmt.Errorf("scenario: event %d victim name longer than %d bytes", i, maxSpecString)
			}
		case WorkloadShift:
			if e.Shift == nil {
				return fmt.Errorf("scenario: event %d (workload_shift) needs shift parameters", i)
			}
			switch e.Shift.Pattern {
			case PatternRandom:
				if e.Shift.Load <= 0 || e.Shift.Load >= 1.0001 {
					return fmt.Errorf("scenario: event %d has load %v out of (0,1]", i, e.Shift.Load)
				}
				if e.Shift.Duration <= 0 {
					return fmt.Errorf("scenario: event %d needs a positive shift duration", i)
				}
				if _, err := workload.ByName(e.Shift.CDFName); err != nil {
					return fmt.Errorf("scenario: event %d: %w", i, err)
				}
			case PatternPermutation, PatternAllToAll:
				if e.Shift.FlowSize <= 0 {
					return fmt.Errorf("scenario: event %d (%s) needs a positive flow size", i, e.Shift.Pattern)
				}
			default:
				return fmt.Errorf("scenario: event %d has unknown pattern %q", i, e.Shift.Pattern)
			}
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

func canonicalLink(a, b string) string {
	if a < b {
		return a + "|" + b
	}
	return b + "|" + a
}

// JSON wire form --------------------------------------------------------------
//
// Specs are authored in human units — microseconds, Gbps, KB — rather than
// the simulator's picosecond/bit/byte integers. See examples/scenarios/ for
// worked configs.

type specJSON struct {
	Name   string      `json:"name"`
	Seed   int64       `json:"seed,omitempty"`
	Events []eventJSON `json:"events"`
}

type eventJSON struct {
	AtUS float64 `json:"at_us"`
	Kind string  `json:"kind"`

	Link *linkJSON `json:"link,omitempty"`

	RateGbps float64 `json:"rate_gbps,omitempty"`
	DelayUS  float64 `json:"delay_us,omitempty"`

	FanIn       int     `json:"fan_in,omitempty"`
	AggregateKB float64 `json:"aggregate_kb,omitempty"`
	Victim      string  `json:"victim,omitempty"`

	Pattern    string  `json:"pattern,omitempty"`
	Load       float64 `json:"load,omitempty"`
	CDF        string  `json:"cdf,omitempty"`
	DurationUS float64 `json:"duration_us,omitempty"`
	FlowSizeKB float64 `json:"flow_size_kb,omitempty"`
}

type linkJSON struct {
	A string `json:"a"`
	B string `json:"b"`
}

// Wire-form magnitude caps. The wire form is the untrusted boundary (bfcd
// accepts specs over HTTP), so every float is checked for finiteness and a
// generous physical bound before it is converted to the simulator's integer
// units — a NaN or 1e300 must come back as an error, never flow through
// math.Round into an implementation-defined integer conversion.
const (
	maxWireUS     = 1e9 // 1000 s of simulated time
	maxWireGbps   = 1e6 // 1 Pbps
	maxWireKB     = 1e9 // ~1 TB per injected volume
	maxWireFanIn  = 1 << 20
	maxWireEvents = MaxSpecEvents
)

// wireNumber rejects non-finite, negative, or out-of-range wire values.
func wireNumber(v float64, limit float64, event int, field string) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("scenario: event %d: %s is not a finite number", event, field)
	}
	if v < 0 {
		return 0, fmt.Errorf("scenario: event %d: %s is negative", event, field)
	}
	if v > limit {
		return 0, fmt.Errorf("scenario: event %d: %s %g exceeds the limit %g", event, field, v, limit)
	}
	return v, nil
}

// ParseSpec decodes the JSON wire form and validates the result. It is safe
// on untrusted input: malformed JSON, non-finite or oversized numbers, and
// oversized specs return errors, never panics.
func ParseSpec(data []byte) (*Spec, error) {
	var w specJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if len(w.Events) > maxWireEvents {
		return nil, fmt.Errorf("scenario: %d events exceed the %d-event limit", len(w.Events), maxWireEvents)
	}
	s := &Spec{Name: w.Name, Seed: w.Seed}
	for i, ew := range w.Events {
		at, err := wireNumber(ew.AtUS, maxWireUS, i, "at_us")
		if err != nil {
			return nil, err
		}
		e := Event{
			At:   usToTime(at),
			Kind: Kind(ew.Kind),
		}
		if ew.Link != nil {
			e.Link = &LinkRef{A: ew.Link.A, B: ew.Link.B}
		}
		switch e.Kind {
		case LinkDegrade:
			rate, err := wireNumber(ew.RateGbps, maxWireGbps, i, "rate_gbps")
			if err != nil {
				return nil, err
			}
			delay, err := wireNumber(ew.DelayUS, maxWireUS, i, "delay_us")
			if err != nil {
				return nil, err
			}
			e.Degrade = &DegradeSpec{
				Rate:  units.Rate(math.Round(rate * float64(units.Gbps))),
				Delay: usToTime(delay),
			}
		case Incast:
			if ew.FanIn > maxWireFanIn {
				return nil, fmt.Errorf("scenario: event %d: fan_in %d exceeds the limit %d", i, ew.FanIn, maxWireFanIn)
			}
			agg, err := wireNumber(ew.AggregateKB, maxWireKB, i, "aggregate_kb")
			if err != nil {
				return nil, err
			}
			e.Incast = &IncastSpec{
				FanIn:         ew.FanIn,
				AggregateSize: kbToBytes(agg),
				Victim:        ew.Victim,
			}
		case WorkloadShift:
			load, err := wireNumber(ew.Load, 1, i, "load")
			if err != nil {
				return nil, err
			}
			dur, err := wireNumber(ew.DurationUS, maxWireUS, i, "duration_us")
			if err != nil {
				return nil, err
			}
			size, err := wireNumber(ew.FlowSizeKB, maxWireKB, i, "flow_size_kb")
			if err != nil {
				return nil, err
			}
			e.Shift = &ShiftSpec{
				Pattern:  Pattern(ew.Pattern),
				Load:     load,
				CDFName:  ew.CDF,
				Duration: usToTime(dur),
				FlowSize: kbToBytes(size),
			}
		case LinkDown, LinkUp:
			// link reference only
		default:
			return nil, fmt.Errorf("scenario: event %d has unknown kind %q", i, ew.Kind)
		}
		s.Events = append(s.Events, e)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeJSON renders the spec in the JSON wire form ParseSpec reads.
func (s *Spec) EncodeJSON() ([]byte, error) {
	w := specJSON{Name: s.Name, Seed: s.Seed}
	for i := range s.Events {
		e := &s.Events[i]
		ew := eventJSON{AtUS: timeToUS(e.At), Kind: string(e.Kind)}
		if e.Link != nil {
			ew.Link = &linkJSON{A: e.Link.A, B: e.Link.B}
		}
		if e.Degrade != nil {
			ew.RateGbps = float64(e.Degrade.Rate) / float64(units.Gbps)
			ew.DelayUS = timeToUS(e.Degrade.Delay)
		}
		if e.Incast != nil {
			ew.FanIn = e.Incast.FanIn
			ew.AggregateKB = float64(e.Incast.AggregateSize) / float64(units.KB)
			ew.Victim = e.Incast.Victim
		}
		if e.Shift != nil {
			ew.Pattern = string(e.Shift.Pattern)
			ew.Load = e.Shift.Load
			ew.CDF = e.Shift.CDFName
			ew.DurationUS = timeToUS(e.Shift.Duration)
			ew.FlowSizeKB = float64(e.Shift.FlowSize) / float64(units.KB)
		}
		w.Events = append(w.Events, ew)
	}
	return json.MarshalIndent(w, "", "  ")
}

func usToTime(us float64) units.Time {
	return units.Time(math.Round(us * float64(units.Microsecond)))
}

func kbToBytes(kb float64) units.Bytes {
	return units.Bytes(math.Round(kb * float64(units.KB)))
}

func timeToUS(t units.Time) float64 {
	return float64(t) / float64(units.Microsecond)
}
