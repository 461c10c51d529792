package sim

// Telemetry determinism tests: the flight recorder and the series sampler are
// observers, so a traced run must produce byte-identical simulation results
// to an untraced run (compared through ResultDigest, which strips the
// Telemetry bundle), and a traced run repeated must produce byte-identical
// traces.

import (
	"bytes"
	"testing"

	"bfc/internal/telemetry"
	"bfc/internal/units"
)

// findSeries returns the run's series called name, or nil.
func findSeries(rs *telemetry.RunSeries, name string) *telemetry.Series {
	for _, s := range rs.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// tracedOptions returns the golden-run options for scheme with or without
// telemetry enabled. The returned ring is nil when traced is false.
func tracedOptions(scheme Scheme, traced bool) (Options, *telemetry.Ring) {
	topo := smallClos()
	opts := DefaultOptions(scheme, topo)
	opts.Duration = 150 * units.Microsecond
	opts.Drain = 800 * units.Microsecond
	opts.Seed = 7
	opts.Scenario = goldenScenarios()["link-flap"]
	if !traced {
		return opts, nil
	}
	ring := telemetry.NewRing(1 << 15)
	opts.Recorder = ring
	opts.SampleSeries = true
	return opts, ring
}

// TestTelemetryDigestParity is the acceptance check for the determinism
// contract: enabling the recorder and the series sampler must not change any
// simulation output.
func TestTelemetryDigestParity(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBFC, SchemeDCQCN} {
		t.Run(scheme.String(), func(t *testing.T) {
			plainOpts, _ := tracedOptions(scheme, false)
			plain, err := Run(plainOpts, goldenFlows(t, plainOpts.Topo))
			if err != nil {
				t.Fatal(err)
			}
			tracedOpts, ring := tracedOptions(scheme, true)
			traced, err := Run(tracedOpts, goldenFlows(t, tracedOpts.Topo))
			if err != nil {
				t.Fatal(err)
			}

			dPlain, err := ResultDigest(plain)
			if err != nil {
				t.Fatal(err)
			}
			dTraced, err := ResultDigest(traced)
			if err != nil {
				t.Fatal(err)
			}
			if dPlain != dTraced {
				t.Errorf("digest changed with telemetry on: %s vs %s", dPlain, dTraced)
			}

			if plain.Telemetry != nil {
				t.Errorf("untraced run has a Telemetry bundle")
			}
			if traced.Telemetry == nil || len(traced.Telemetry.Series) == 0 {
				t.Fatalf("traced run missing Telemetry series bundle")
			}
			if s := findSeries(traced.Telemetry, "fabric/events_per_tick"); s == nil || s.Max() <= 0 {
				t.Errorf("events-per-tick series missing or never positive")
			}

			if ring.Seen() == 0 {
				t.Fatalf("recorder saw no events")
			}
			kinds := map[telemetry.Kind]int{}
			for _, ev := range ring.Events() {
				kinds[ev.Kind]++
			}
			want := []telemetry.Kind{
				telemetry.KindFlowStart, telemetry.KindFlowFinish,
				telemetry.KindScenario, telemetry.KindLinkDown, telemetry.KindLinkUp,
			}
			if scheme == SchemeBFC {
				// PFC pause coverage lives in the switchsim recorder tests;
				// this light workload never crosses the PFC threshold.
				want = append(want, telemetry.KindQueueAssign)
			}
			for _, k := range want {
				if kinds[k] == 0 {
					t.Errorf("no %v events recorded (histogram %v)", k, kinds)
				}
			}
			if kinds[telemetry.KindLinkDown] != 1 || kinds[telemetry.KindLinkUp] != 1 {
				t.Errorf("link flap should record exactly one down and one up: %v", kinds)
			}
		})
	}
}

// TestTelemetryTraceDeterministic pins trace reproducibility: the same seed
// and configuration must yield byte-identical JSONL event streams.
func TestTelemetryTraceDeterministic(t *testing.T) {
	runTrace := func() []byte {
		opts, ring := tracedOptions(SchemeBFC, true)
		if _, err := Run(opts, goldenFlows(t, opts.Topo)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteJSONL(&buf, ring.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runTrace(), runTrace()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-running the same traced configuration changed the trace (%d vs %d bytes)", len(a), len(b))
	}
}
