// Package harness orchestrates grids of independent simulation runs: the
// paper's evaluation is a cartesian product of scheme x workload x load x
// topology x sensitivity parameter, and every point is one self-contained
// sim.Run. The harness turns such a grid into a list of declarative Jobs,
// shards them over a bounded worker pool, persists each completed job as one
// JSONL artifact keyed by a content hash of the job spec, and skips
// already-completed jobs on resume.
//
// Determinism: a Job builds its own topology and workload inside the worker
// (no shared mutable state, no shared RNG) and its simulation seed is derived
// from a hash of the job name, so the records produced by a parallel run are
// bit-identical to a serial run of the same jobs.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
)

// Job declares one simulation run: which scheme to simulate, how to build the
// topology and workload, and how to adjust the default options. Jobs are
// executed inside worker goroutines, so the closures must not touch shared
// mutable state; everything a run needs is built fresh per execution.
type Job struct {
	// Name uniquely identifies the job within a suite (e.g.
	// "reduced/fig05a/scheme=BFC"). It keys the content hash, the derived
	// simulation seed, and progress reporting.
	Name string

	// Scheme selects the congestion-control architecture.
	Scheme sim.Scheme

	// Meta carries figure-specific labels (sweep parameter values, workload
	// names, ...) into the persisted Record and the content hash.
	Meta map[string]string

	// Topology builds a fresh topology for the run. It is invoked exactly
	// once per execution, before Flows, so the two closures may share
	// job-local state captured from an enclosing scope.
	Topology func() *topology.Topology

	// Flows generates the run's workload on the topology Topology returned.
	Flows func(topo *topology.Topology) []*packet.Flow

	// Options mutate the scheme's default sim options. Mutators run after
	// the harness has set Duration-independent defaults and the derived
	// Seed, so they have the final say.
	Options []func(*sim.Options)

	// Extract optionally computes figure-specific scalar metrics from the
	// completed run (e.g. Fig 9's intra- vs inter-DC tail slowdowns, which
	// need the flow list). The returned map is persisted as Record.Extra.
	Extract func(topo *topology.Topology, opts *sim.Options, flows []*packet.Flow, res *sim.Result) map[string]float64
}

// Validate reports spec errors.
func (j *Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("harness: job without a name")
	}
	if j.Topology == nil || j.Flows == nil {
		return fmt.Errorf("harness: job %q needs Topology and Flows builders", j.Name)
	}
	return nil
}

// Hash returns the content hash keying this job's persisted artifact; see
// JobSpec.Hash for the contract.
func (j *Job) Hash() string { return j.Spec().Hash() }

// Seed returns the job's derived simulation seed.
func (j *Job) Seed() int64 { return DeriveSeed(j.Name) }

// DeriveSeed hashes the parts into a positive, stable RNG seed. Jobs use it
// for their simulation seed (keyed by job name); experiment definitions use
// it to derive workload seeds from stable strings (e.g. a figure/workload
// key shared by every scheme of one figure) so that no two sweep points ever
// share RNG state yet comparable runs see identical traffic.
func DeriveSeed(parts ...string) int64 {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	v := binary.BigEndian.Uint64(h.Sum(nil)[:8]) &^ (1 << 63)
	if v == 0 {
		v = 1
	}
	return int64(v)
}

// Record is the persisted outcome of one job: one JSONL line in the artifact
// store. It deliberately carries no wall-clock information so that reruns and
// parallel runs produce byte-identical artifacts.
type Record struct {
	// Name and Hash identify the job (Hash keys the artifact file).
	Name string `json:"name"`
	Hash string `json:"hash"`
	// Scheme is the human-readable scheme label.
	Scheme string `json:"scheme"`
	// Seed is the derived simulation seed the run used.
	Seed int64 `json:"seed"`
	// Meta echoes the job's metadata.
	Meta map[string]string `json:"meta,omitempty"`
	// Extra holds the job's Extract output.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Result is the full simulation result.
	Result *sim.Result `json:"result"`
}

// Execute runs the job to completion in the calling goroutine and builds its
// record. Pool is its one caller — under Runner.Run, the service tier and the
// fleet's executors alike — and it consults no store.
// Workload and experiment builders panic on misconfiguration, and a server
// compiles jobs from untrusted specs, so Execute is also the one panic fence:
// a panic anywhere in the job's builders or its run comes back as the job's
// error, and one bad sweep point cannot take down a multi-hour suite or a
// daemon.
func (j *Job) Execute() (rec *Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			rec, err = nil, fmt.Errorf("harness: job %q panicked: %v", j.Name, p)
		}
	}()
	if err := j.Validate(); err != nil {
		return nil, err
	}
	topo := j.Topology()
	opts := sim.DefaultOptions(j.Scheme, topo)
	opts.Seed = j.Seed()
	for _, mutate := range j.Options {
		if mutate != nil {
			mutate(&opts)
		}
	}
	flows := j.Flows(topo)
	res, err := sim.Run(opts, flows)
	if err != nil {
		return nil, fmt.Errorf("harness: job %q: %w", j.Name, err)
	}
	rec = &Record{
		Name:   j.Name,
		Hash:   j.Hash(),
		Scheme: j.Scheme.String(),
		Seed:   opts.Seed,
		Meta:   j.Meta,
		Result: res,
	}
	if j.Extract != nil {
		rec.Extra = j.Extract(topo, &opts, flows, res)
	}
	return rec, nil
}
