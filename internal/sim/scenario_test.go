package sim

import (
	"crypto/sha256"
	"encoding/json"
	"testing"

	"bfc/internal/scenario"
	"bfc/internal/units"
)

// linkFlapSpec fails a ToR-spine link mid-run and recovers it later.
func linkFlapSpec() *scenario.Spec {
	return &scenario.Spec{
		Name: "link-flap",
		Seed: 3,
		Events: []scenario.Event{
			{At: 40 * units.Microsecond, Kind: scenario.LinkDown,
				Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
			{At: 90 * units.Microsecond, Kind: scenario.LinkUp,
				Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
		},
	}
}

func runScenario(t *testing.T, scheme Scheme, spec *scenario.Spec) *Result {
	t.Helper()
	topo := smallClos()
	flows := goldenFlows(t, topo)
	opts := DefaultOptions(scheme, topo)
	opts.Duration = 150 * units.Microsecond
	opts.Drain = 800 * units.Microsecond
	opts.Seed = 7
	opts.Scenario = spec
	res, err := Run(opts, flows)
	if err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	return res
}

func TestScenarioLinkFlap(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCN} {
		t.Run(scheme.String(), func(t *testing.T) {
			res := runScenario(t, scheme, linkFlapSpec())
			m := res.Scenario
			if m == nil {
				t.Fatal("result has no scenario metrics")
			}
			if m.EventsApplied != 2 {
				t.Errorf("EventsApplied = %d, want 2", m.EventsApplied)
			}
			if m.Reroutes == 0 {
				t.Error("link flap caused no reroutes")
			}
			if len(m.Phases) != 3 {
				t.Fatalf("got %d phases, want 3 (pre, down, up)", len(m.Phases))
			}
			if m.Phases[0].Name != "pre" || m.Phases[1].Name != "e0:link_down" || m.Phases[2].Name != "e1:link_up" {
				t.Errorf("unexpected phase names %q %q %q",
					m.Phases[0].Name, m.Phases[1].Name, m.Phases[2].Name)
			}
			total := 0
			for _, ph := range m.Phases {
				total += ph.Completed
			}
			if total != res.FlowsCompleted {
				t.Errorf("phase completions sum to %d, result reports %d", total, res.FlowsCompleted)
			}
			if res.FlowsCompleted == 0 {
				t.Error("no flows completed through the flap")
			}
		})
	}
}

// TestScenarioDeterminism verifies the acceptance criterion: a scenario run
// is byte-identical across repetitions (the cross-worker half is covered by
// the harness determinism tests plus the CI smoke job, which diffs digests
// across -parallel settings).
func TestScenarioDeterminism(t *testing.T) {
	digest := func() [32]byte {
		res := runScenario(t, SchemeBFC, linkFlapSpec())
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(blob)
	}
	if a, b := digest(), digest(); a != b {
		t.Fatalf("two identical scenario runs produced different digests %x vs %x", a, b)
	}
}

// TestScenarioIncastStorm checks injected flows are started, completed and
// accounted.
func TestScenarioIncastStorm(t *testing.T) {
	spec := &scenario.Spec{
		Name: "incast-storm",
		Seed: 5,
		Events: []scenario.Event{
			{At: 50 * units.Microsecond, Kind: scenario.Incast,
				Incast: &scenario.IncastSpec{FanIn: 6, AggregateSize: 256 * units.KB}},
		},
	}
	res := runScenario(t, SchemeBFC, spec)
	m := res.Scenario
	if m.InjectedFlows != 6 {
		t.Errorf("InjectedFlows = %d, want 6", m.InjectedFlows)
	}
	if got := res.FCTIncast.Count(); got == 0 {
		t.Error("no incast completions recorded")
	}
	if m.Phases[1].CompletedIncast == 0 {
		t.Error("incast completions not attributed to the storm phase")
	}
}

// TestScenarioStrandedAccounting cuts both uplinks of tor0 for most of the
// run, then restores them. It checks that the isolation strands or drops
// something, that stranded packets come with stranded bytes, and that flows
// still complete after recovery. It does not check that stranded packets
// return to the packet pool: that leak check is the pool invariant
// (allocated − recycled = live) of ROADMAP item 3(a).
func TestScenarioStrandedAccounting(t *testing.T) {
	spec := &scenario.Spec{
		Name: "perma-fail",
		Events: []scenario.Event{
			{At: 30 * units.Microsecond, Kind: scenario.LinkDown,
				Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
			{At: 31 * units.Microsecond, Kind: scenario.LinkDown,
				Link: &scenario.LinkRef{A: "tor0", B: "spine1"}},
			{At: 400 * units.Microsecond, Kind: scenario.LinkUp,
				Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
			{At: 400 * units.Microsecond, Kind: scenario.LinkUp,
				Link: &scenario.LinkRef{A: "tor0", B: "spine1"}},
		},
	}
	res := runScenario(t, SchemeBFC, spec)
	m := res.Scenario
	// With both uplinks of tor0 cut, cross-rack traffic in flight is lost.
	if m.StrandedPackets == 0 && m.NoRouteDrops == 0 {
		t.Error("total rack isolation stranded nothing")
	}
	if m.StrandedBytes == 0 && m.StrandedPackets > 0 {
		t.Error("stranded packets counted but no bytes")
	}
	// After recovery the rack rejoins and flows finish.
	if res.FlowsCompleted == 0 {
		t.Error("no flows completed after recovery")
	}
}

// TestScenarioStackedDegrades verifies that zero fields of a later degrade
// event mean "keep the current value", not "restore the construction-time
// value": a rate-only degrade followed by a delay-only degrade must leave
// both in effect.
func TestScenarioStackedDegrades(t *testing.T) {
	spec := &scenario.Spec{
		Name: "stacked-degrade",
		Events: []scenario.Event{
			{At: 20 * units.Microsecond, Kind: scenario.LinkDegrade,
				Link:    &scenario.LinkRef{A: "tor0", B: "spine0"},
				Degrade: &scenario.DegradeSpec{Rate: 10 * units.Gbps}},
			{At: 40 * units.Microsecond, Kind: scenario.LinkDegrade,
				Link:    &scenario.LinkRef{A: "tor0", B: "spine0"},
				Degrade: &scenario.DegradeSpec{Delay: 5 * units.Microsecond}},
		},
	}
	topo := smallClos()
	flows := goldenFlows(t, topo)
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 150 * units.Microsecond
	opts.Drain = 800 * units.Microsecond
	opts.Seed = 7
	opts.Scenario = spec
	if _, err := Run(opts, flows); err != nil {
		t.Fatal(err)
	}
	tor0, _ := topo.NodeByName("tor0")
	spine0, _ := topo.NodeByName("spine0")
	pa, _, _ := topo.LinkBetween(tor0, spine0)
	port := topo.Node(tor0).Ports[pa]
	if port.Rate != 10*units.Gbps {
		t.Errorf("second degrade reverted the rate: %v", port.Rate)
	}
	if port.Delay != 5*units.Microsecond {
		t.Errorf("delay degrade not applied: %v", port.Delay)
	}
}
