// Package harness runs lists of independent simulation jobs: the paper's
// evaluation is a cartesian product of scheme x workload x load x topology x
// sensitivity parameter, and every point is one self-contained sim.Run. The
// harness takes the Jobs a caller declares (internal/experiments compiles
// every figure point into them), shards them over a bounded worker pool,
// persists each completed job as one JSONL artifact keyed by the job's
// content hash (Job.Hash: the model version, name, scheme and meta), and
// skips already-completed jobs on resume.
//
// Determinism: a Job builds its own topology and workload inside the worker
// (no shared mutable state, no shared RNG) and its simulation seed is derived
// from a hash of the job name, so the records produced by a parallel run are
// bit-identical to a serial run of the same jobs.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

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
	// run's topology and its flows once the run is over (e.g. Fig 9's intra-
	// vs inter-DC tail slowdowns, which need the flow list). The returned map
	// is persisted as Record.Extra.
	Extract func(topo *topology.Topology, flows []*packet.Flow) map[string]float64
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

// Hash returns the content hash keying this job's persisted artifact: the
// first 16 hex characters of a sha256 over sim.ModelVersion, the name, the
// scheme label and the meta pairs in key order, each closed by a 0 byte (a
// meta key by a 1). It is the one identity of a job's result: artifact file
// names, -resume, the service's cache, suite digests and the fleet's
// cross-worker dedupe all key on it, and records cross processes under it.
// Closures cannot be hashed, so every parameter that changes a job's outcome
// must be reflected in Name or Meta — internal/experiments labels every job
// with the digest of the point it was compiled from, which covers every
// parameter — and every change to the model code that moves an outcome must
// bump sim.ModelVersion.
func (j *Job) Hash() string {
	b := make([]byte, 0, 256)
	b = strconv.AppendInt(b, sim.ModelVersion, 10)
	b = append(append(b, 0), j.Name...)
	b = append(append(b, 0), j.Scheme.String()...)
	b = append(b, 0)
	keys := make([]string, 0, len(j.Meta))
	for k := range j.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = append(append(append(b, k...), 1), j.Meta[k]...)
		b = append(b, 0)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

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
	// ManifestEntry is the job's identity, declared first so that every
	// artifact opens with it and a listing reads nothing else (readEntry).
	ManifestEntry
	// Seed is the derived simulation seed the run used.
	Seed int64 `json:"seed"`
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
		ManifestEntry: ManifestEntry{
			Hash: j.Hash(), Name: j.Name, Scheme: j.Scheme.String(),
			Model: sim.ModelVersion, Meta: j.Meta,
		},
		Seed:   opts.Seed,
		Result: res,
	}
	if j.Extract != nil {
		rec.Extra = j.Extract(topo, flows)
	}
	return rec, nil
}
