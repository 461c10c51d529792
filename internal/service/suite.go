package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/scenario"
	"bfc/internal/sim"
)

// MaxSuiteSpecBytes bounds a submitted suite document. Specs are tiny — a
// figure key and a scheme list, or a scenario of at most a few thousand
// events — so anything larger is a mistake or an attack.
const MaxSuiteSpecBytes = 1 << 20

// maxSuiteString bounds the free-form strings of the wire form.
const maxSuiteString = 256

// SuiteSpec is the wire form of one submission: a JSON-declared grid the
// server compiles to harness jobs. Exactly one of Figure, Scenario or Run
// selects the grid shape:
//
//   - Figure names an entry of the figure table (experiments.Figures) that
//     has jobs; the suite is that figure's job grid at Scale, optionally
//     restricted to Schemes.
//   - Scenario embeds a scenario.Spec wire document; the suite runs it on the
//     scale's Clos fabric under the standard Fig 5a background workload, one
//     job per scheme.
//   - Run embeds an experiments.RunSpec, what cmd/bfcsim's flags declare; the
//     suite is its job per scheme. A run carries its own horizon, so it takes
//     no Scale.
//
// The compiled jobs carry exactly the names and content hashes a direct
// cmd/bfcsim run of the same grid would produce, which is
// what makes the daemon's result cache shareable with batch artifacts.
type SuiteSpec struct {
	// Name optionally labels the suite for humans; it does not affect job
	// identity.
	Name string `json:"name,omitempty"`
	// Figure is a figure-table key ("fig05a"; GET /api/v1/figures lists them).
	Figure string `json:"figure,omitempty"`
	// Scale selects the experiment scale: "tiny", "reduced" (default) or
	// "full".
	Scale string `json:"scale,omitempty"`
	// Schemes optionally restricts the scheme axis (labels as printed by the
	// figures, e.g. "BFC", "DCQCN+Win"). Only valid for figures whose scheme
	// set is selectable, and for scenarios and runs.
	Schemes []string `json:"schemes,omitempty"`
	// Scenario is a scenario.Spec wire document (see examples/scenarios).
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Run is an experiments.RunSpec (see examples/service/run-clos.json).
	Run *experiments.RunSpec `json:"run,omitempty"`
	// Trace attaches a flight recorder to every job this suite executes;
	// completed traces are served by GET /api/v1/suites/{id}/trace/{job}.
	// Tracing is observational: it changes neither job content hashes nor
	// results, so traced and untraced submissions share cache artifacts.
	// Jobs satisfied from the cache are not re-simulated and have no trace.
	Trace bool `json:"trace,omitempty"`
}

// ParseSuiteSpec decodes and structurally validates a suite document. It is
// safe on untrusted input: errors, never panics. Unknown fields are rejected
// so a typoed axis name fails loudly instead of silently running the default
// grid.
func ParseSuiteSpec(data []byte) (*SuiteSpec, error) {
	if len(data) > MaxSuiteSpecBytes {
		return nil, fmt.Errorf("service: suite spec exceeds %d bytes", MaxSuiteSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &SuiteSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("service: decoding suite spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("service: trailing data after suite spec")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// validate checks the wire-form fields without compiling jobs.
func (s *SuiteSpec) validate() error {
	if len(s.Name) > maxSuiteString {
		return fmt.Errorf("service: suite name longer than %d bytes", maxSuiteString)
	}
	if len(s.Figure) > maxSuiteString || len(s.Scale) > maxSuiteString {
		return fmt.Errorf("service: figure/scale name longer than %d bytes", maxSuiteString)
	}
	if len(s.Schemes) > 16 {
		return fmt.Errorf("service: %d schemes exceed the limit 16", len(s.Schemes))
	}
	for _, name := range s.Schemes {
		if len(name) > maxSuiteString {
			return fmt.Errorf("service: scheme name longer than %d bytes", maxSuiteString)
		}
	}
	hasFigure, hasScenario, hasRun := s.Figure != "", len(s.Scenario) > 0, s.Run != nil
	if hasRun && (hasFigure || hasScenario) || !hasRun && hasFigure == hasScenario {
		return fmt.Errorf("service: a suite needs exactly one of figure, scenario or run")
	}
	if hasRun && s.Scale != "" {
		return fmt.Errorf("service: a run suite declares its own horizon and takes no scale")
	}
	return nil
}

// CompiledSuite is a validated, executable suite: the jobs plus the identity
// information the service tracks.
type CompiledSuite struct {
	Spec  SuiteSpec
	Title string
	// Figure is the resolved registry key, "scenario/<name>" or "run".
	Figure string
	// Scale is the resolved scale name ("" for a run).
	Scale string
	// Jobs is the compiled grid, validated by harness.ValidateSuite.
	Jobs []harness.Job
	// Hashes holds each job's content hash, in job order, taken once at
	// compile: the digest, the store lookups and the fleet read them.
	Hashes []string
	// Digest content-addresses the whole suite: a sha256 over the sorted job
	// hashes. Two submissions with the same digest ask for exactly the same
	// simulation work.
	Digest string
	// Trace carries the spec's flight-recorder request through to execution.
	Trace bool
}

// Shippable reports whether a remote worker can recompile this suite from
// its wire-form spec alone. Suites built directly from Go (SubmitCompiled
// with hand-assembled jobs) carry closures that cannot cross a process
// boundary, so the fleet tier runs them on the local pool instead.
func (cs *CompiledSuite) Shippable() bool {
	return cs.Spec.Figure != "" || len(cs.Spec.Scenario) > 0 || cs.Spec.Run != nil
}

// Compile resolves the wire form against the figure registry and scales,
// producing the job grid. Compilation builds no topologies and runs no
// simulations; it is cheap enough to do on every submission.
func (s *SuiteSpec) Compile() (*CompiledSuite, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	scale, err := experiments.ScaleByName(s.Scale)
	if err != nil {
		return nil, err
	}
	var schemes []sim.Scheme
	if len(s.Schemes) > 0 {
		schemes, err = sim.ParseSchemes(strings.Join(s.Schemes, ","))
		if err != nil {
			return nil, err
		}
	}

	cs := &CompiledSuite{Spec: *s, Scale: scale.Name, Trace: s.Trace}
	switch {
	case s.Run != nil:
		cs.Figure, cs.Scale = "run", ""
		if cs.Jobs, err = s.Run.Jobs(schemes); err != nil {
			return nil, err
		}
	case s.Figure != "":
		fig, ok := experiments.FigureByKey(s.Figure)
		if !ok || fig.Jobs == nil {
			return nil, fmt.Errorf("service: unknown figure %q (see GET /api/v1/figures)", s.Figure)
		}
		if schemes != nil && !fig.SchemesSelectable {
			return nil, fmt.Errorf("service: figure %q has a fixed scheme set", fig.Key)
		}
		cs.Figure = fig.Key
		cs.Jobs = fig.Jobs(scale, schemes)
	default:
		spec, err := scenario.ParseSpec(s.Scenario)
		if err != nil {
			return nil, err
		}
		cs.Figure = "scenario/" + spec.Name
		cs.Jobs, err = experiments.ScenarioJobs(scale, spec, schemes)
		if err != nil {
			return nil, err
		}
	}
	if err := cs.seal(); err != nil {
		return nil, err
	}
	cs.Title = s.Name
	if cs.Title == "" {
		cs.Title = strings.TrimSuffix(cs.Figure+"@"+cs.Scale, "@")
	}
	return cs, nil
}

// seal validates the suite's jobs, taking their content hashes once, and
// digests the suite.
func (cs *CompiledSuite) seal() (err error) {
	if cs.Hashes, err = harness.ValidateSuite(cs.Jobs); err != nil {
		return err
	}
	cs.Digest = suiteDigest(cs.Hashes)
	return nil
}

// suiteDigest hashes the sorted job content hashes.
func suiteDigest(hashes []string) string {
	h := sha256.New()
	for _, hash := range slices.Sorted(slices.Values(hashes)) {
		h.Write([]byte(hash))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
