package scenario

import (
	"strings"
	"testing"

	"bfc/internal/units"
)

func validSpec() *Spec {
	return &Spec{
		Name: "test",
		Seed: 1,
		Events: []Event{
			{At: 10 * units.Microsecond, Kind: LinkDown, Link: &LinkRef{A: "tor0", B: "spine0"}},
			{At: 20 * units.Microsecond, Kind: Incast,
				Incast: &IncastSpec{FanIn: 4, AggregateSize: 64 * units.KB}},
			{At: 30 * units.Microsecond, Kind: LinkUp, Link: &LinkRef{A: "tor0", B: "spine0"}},
			{At: 40 * units.Microsecond, Kind: LinkDegrade, Link: &LinkRef{A: "tor0", B: "spine1"},
				Degrade: &DegradeSpec{Rate: 10 * units.Gbps, Delay: 5 * units.Microsecond}},
			{At: 50 * units.Microsecond, Kind: WorkloadShift,
				Shift: &ShiftSpec{Pattern: PatternRandom, Load: 0.5, CDFName: "google", Duration: 100 * units.Microsecond}},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"unordered", func(s *Spec) { s.Events[1].At = 5 * units.Microsecond }, "time-ordered"},
		{"double fail", func(s *Spec) { s.Events[2].Kind = LinkDown }, "twice"},
		{"up without down", func(s *Spec) { s.Events[0].Kind = LinkUp }, "not down"},
		{"missing link", func(s *Spec) { s.Events[0].Link = nil }, "needs a link"},
		{"bad kind", func(s *Spec) { s.Events[0].Kind = "reboot" }, "unknown kind"},
		{"bad load", func(s *Spec) { s.Events[4].Shift.Load = 1.5 }, "load"},
		{"bad cdf", func(s *Spec) { s.Events[4].Shift.CDFName = "nope" }, "unknown distribution"},
		{"bad pattern", func(s *Spec) { s.Events[4].Shift.Pattern = "zigzag" }, "unknown pattern"},
		{"bad incast", func(s *Spec) { s.Events[1].Incast.FanIn = 0 }, "fan-in"},
		{"degrade no params", func(s *Spec) { s.Events[3].Degrade = &DegradeSpec{} }, "rate or delay"},
		{"negative time", func(s *Spec) { s.Events[0].At = -1 }, "negative"},
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := validSpec()
	blob, err := orig.EncodeJSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := ParseSpec(blob)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, blob)
	}
	if back.Name != orig.Name || back.Seed != orig.Seed || len(back.Events) != len(orig.Events) {
		t.Fatalf("round trip lost structure: %+v", back)
	}
	for i := range orig.Events {
		a, b := &orig.Events[i], &back.Events[i]
		if a.At != b.At || a.Kind != b.Kind {
			t.Errorf("event %d: got (%v, %s), want (%v, %s)", i, b.At, b.Kind, a.At, a.Kind)
		}
	}
	if got := back.Events[3].Degrade; got.Rate != 10*units.Gbps || got.Delay != 5*units.Microsecond {
		t.Errorf("degrade round trip: %+v", got)
	}
	if got := back.Events[1].Incast; got.FanIn != 4 || got.AggregateSize != 64*units.KB {
		t.Errorf("incast round trip: %+v", got)
	}
	if got := back.Events[4].Shift; got.Pattern != PatternRandom || got.Load != 0.5 || got.CDFName != "google" {
		t.Errorf("shift round trip: %+v", got)
	}
}

func TestParseSpecRejectsInvalid(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","events":[{"at_us":1,"kind":"warp"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x","events":[{"at_us":1,"kind":"link_up","link":{"a":"t","b":"s"}}]}`)); err == nil {
		t.Error("up-without-down accepted")
	}
}

func TestMetricsPhases(t *testing.T) {
	spec := &Spec{
		Name: "phases",
		Events: []Event{
			{At: 10 * units.Microsecond, Kind: LinkDown, Link: &LinkRef{A: "a", B: "b"}},
			{At: 30 * units.Microsecond, Kind: LinkUp, Link: &LinkRef{A: "a", B: "b"}},
			{At: 30 * units.Microsecond, Kind: Incast, Incast: &IncastSpec{FanIn: 2, AggregateSize: units.KB}},
		},
	}
	m := newMetrics(spec, 100*units.Microsecond, false)
	if len(m.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(m.Phases))
	}
	wantNames := []string{"pre", "e0:link_down", "e1:link_up+incast"}
	for i, w := range wantNames {
		if m.Phases[i].Name != w {
			t.Errorf("phase %d named %q, want %q", i, m.Phases[i].Name, w)
		}
	}
	if m.Phases[0].End != 10*units.Microsecond || m.Phases[1].End != 30*units.Microsecond ||
		m.Phases[2].End != 100*units.Microsecond {
		t.Errorf("phase bounds wrong: %+v %+v %+v", m.Phases[0], m.Phases[1], m.Phases[2])
	}

	// Attribution: starts at 5us -> pre; 10us -> during; 99us and beyond-horizon
	// drain completions -> last phase.
	m.RecordCompletion(5*units.Microsecond, units.KB, units.Microsecond, units.Microsecond, false)
	m.RecordCompletion(10*units.Microsecond, units.KB, units.Microsecond, units.Microsecond, false)
	m.RecordCompletion(99*units.Microsecond, units.KB, units.Microsecond, units.Microsecond, false)
	m.RecordCompletion(15*units.Microsecond, units.KB, units.Microsecond, units.Microsecond, true)
	if m.Phases[0].Completed != 1 || m.Phases[1].Completed != 1 || m.Phases[2].Completed != 1 {
		t.Errorf("attribution wrong: %d %d %d",
			m.Phases[0].Completed, m.Phases[1].Completed, m.Phases[2].Completed)
	}
	if m.Phases[1].CompletedIncast != 1 {
		t.Errorf("incast attribution wrong: %d", m.Phases[1].CompletedIncast)
	}
}
