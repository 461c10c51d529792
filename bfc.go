// Package bfc is the public API of the Backpressure Flow Control (BFC)
// reproduction: a packet-level discrete-event simulator of RDMA data-center
// fabrics together with the BFC per-hop per-flow flow-control architecture
// (Goyal et al.) and the baselines it is evaluated against (DCQCN, DCQCN+Win,
// DCQCN+Win+SFQ, HPCC, Ideal-FQ).
//
// Example_quickstart (example_test.go) is the typical workflow: build a
// fabric, generate a workload, run BFC and print its tail-latency table. The
// compiler checks it and go test checks its output; it and the other
// Examples (go test -run Example .) run the paper's main comparisons at
// example scale. The experiments that regenerate every
// figure of the paper live in internal/experiments and are runnable through
// cmd/bfcsim -fig.
package bfc

import (
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// Time is a simulated duration or instant in picoseconds.
type Time = units.Time

// Common unit constants.
const (
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond

	Gbps = units.Gbps

	MB = units.MB
)

// Scheme selects the congestion-control architecture of a run.
type Scheme = sim.Scheme

// Schemes of the paper's evaluation; AllSchemes lists all six.
const (
	SchemeBFC      = sim.SchemeBFC
	SchemeDCQCN    = sim.SchemeDCQCN
	SchemeDCQCNWin = sim.SchemeDCQCNWin
	SchemeHPCC     = sim.SchemeHPCC
)

// AllSchemes lists the six schemes of Fig 5.
func AllSchemes() []Scheme { return sim.AllSchemes() }

// Options configures a simulation run; Result is what it returns.
type (
	Options = sim.Options
	Result  = sim.Result
)

// Flow is one message transfer between two hosts.
type Flow = packet.Flow

// Topology describes a simulated network.
type Topology = topology.Topology

// ClosConfig parameterizes two-tier Clos fabrics.
type ClosConfig = topology.ClosConfig

// CrossDCTopology is the two-data-center topology of Fig 9.
type CrossDCTopology = topology.CrossDC

// DefaultOptions returns the paper's configuration (§4.1) for a scheme and
// topology.
func DefaultOptions(scheme Scheme, topo *Topology) Options {
	return sim.DefaultOptions(scheme, topo)
}

// Run executes one simulation of the given flows and returns its
// measurements.
func Run(opts Options, flows []*Flow) (*Result, error) { return sim.Run(opts, flows) }

// IdealFCT returns the unloaded-network completion time used to normalize FCT
// slowdowns.
func IdealFCT(topo *Topology, f *Flow) Time { return sim.IdealFCT(topo, f) }

// NewClos builds an arbitrary two-tier Clos.
func NewClos(cfg ClosConfig) *Topology { return topology.NewClos(cfg) }

// NewCrossDC builds two copies of a Clos data center joined by the §4.2
// gateway link (100 Gbps, 200 us).
func NewCrossDC(dc ClosConfig) *CrossDCTopology { return topology.NewCrossDC(dc) }

// Workload generation.

// WorkloadConfig parameterizes synthetic trace generation; WorkloadTrace is
// the result. InterDCConfig marks a share of flows as crossing between the
// two data centers of a CrossDCTopology.
type (
	WorkloadConfig = workload.Config
	WorkloadTrace  = workload.Trace
	WorkloadCDF    = workload.CDF
	IncastConfig   = workload.IncastConfig
	InterDCConfig  = workload.InterDCConfig
)

// GenerateWorkload synthesizes a trace of flows.
func GenerateWorkload(cfg WorkloadConfig) (*WorkloadTrace, error) { return workload.Generate(cfg) }

// GoogleWorkload and FBHadoopWorkload return two of the embedded industry
// flow-size distributions of Fig 4.
func GoogleWorkload() *WorkloadCDF   { return workload.Google() }
func FBHadoopWorkload() *WorkloadCDF { return workload.FBHadoop() }

// Distribution is a sampled scalar distribution (count, mean, percentiles).
type Distribution = stats.Distribution
