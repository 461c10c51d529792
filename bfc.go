// Package bfc is the public API of the Backpressure Flow Control (BFC)
// reproduction: a packet-level discrete-event simulator of RDMA data-center
// fabrics together with the BFC per-hop per-flow flow-control architecture
// (Goyal et al.) and the baselines it is evaluated against (DCQCN, DCQCN+Win,
// DCQCN+Win+SFQ, HPCC, Ideal-FQ).
//
// The typical workflow is:
//
//	topo := bfc.NewT2()
//	flows, _ := bfc.GenerateWorkload(bfc.WorkloadConfig{
//	        Hosts: topo.Hosts(), CDF: bfc.GoogleWorkload(), Load: 0.6,
//	        HostRate: 100 * bfc.Gbps, Duration: bfc.Millisecond, Seed: 1,
//	})
//	opts := bfc.DefaultOptions(bfc.SchemeBFC, topo)
//	res, _ := bfc.Run(opts, flows.Flows)
//	fmt.Println(res.FCT.Rows())
//
// The experiments that regenerate every figure of the paper live in
// internal/experiments and are runnable through cmd/bfcsim -fig and the
// benchmark harness in bench_test.go.
package bfc

import (
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// Time, Rate and Bytes re-export the simulator units.
type (
	// Time is a simulated duration or instant in picoseconds.
	Time = units.Time
	// Rate is a link or flow rate in bits per second.
	Rate = units.Rate
	// Bytes is a byte count.
	Bytes = units.Bytes
)

// Common unit constants.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second

	Mbps = units.Mbps
	Gbps = units.Gbps

	KB = units.KB
	MB = units.MB
)

// Scheme selects the congestion-control architecture of a run.
type Scheme = sim.Scheme

// The schemes compared in the paper's evaluation.
const (
	SchemeBFC         = sim.SchemeBFC
	SchemeBFCStatic   = sim.SchemeBFCStatic
	SchemeDCQCN       = sim.SchemeDCQCN
	SchemeDCQCNWin    = sim.SchemeDCQCNWin
	SchemeDCQCNWinSFQ = sim.SchemeDCQCNWinSFQ
	SchemeHPCC        = sim.SchemeHPCC
	SchemeIdealFQ     = sim.SchemeIdealFQ
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

// NodeID identifies a host or switch in a topology.
type NodeID = packet.NodeID

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

// ResultDigest returns the SHA-256 hex digest of the marshalled Result
// (telemetry series excluded), the canonical fingerprint for determinism
// checks across shard counts and telemetry settings.
func ResultDigest(res *Result) (string, error) { return sim.ResultDigest(res) }

// IdealFCT returns the unloaded-network completion time used to normalize FCT
// slowdowns.
func IdealFCT(topo *Topology, mtu Bytes, f *Flow) Time { return sim.IdealFCT(topo, mtu, f) }

// Topology constructors.

// NewT1 builds the paper's 128-host evaluation fabric.
func NewT1() *Topology { return topology.NewT1() }

// NewT2 builds the paper's 64-host evaluation fabric.
func NewT2() *Topology { return topology.NewT2() }

// NewClos builds an arbitrary two-tier Clos.
func NewClos(cfg ClosConfig) *Topology { return topology.NewClos(cfg) }

// NewSingleSwitch builds a star topology of n hosts around one switch.
func NewSingleSwitch(numHosts int, rate Rate, delay Time) *Topology {
	return topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts: numHosts, LinkRate: rate, LinkDelay: delay,
	})
}

// NewFatTree builds the scale tier's standard three-tier fat-tree holding at
// least the requested number of hosts (rounded up to whole pods).
func NewFatTree(hosts int, rate Rate, delay Time) *Topology {
	return topology.NewFatTree(topology.FatTreeForHosts(hosts, rate, delay))
}

// NewCrossDC builds two Clos data centers joined by a long gateway link.
func NewCrossDC(cfg topology.CrossDCConfig) *CrossDCTopology { return topology.NewCrossDC(cfg) }

// CrossDCConfig parameterizes NewCrossDC.
type CrossDCConfig = topology.CrossDCConfig

// Workload generation.

// WorkloadConfig parameterizes synthetic trace generation; WorkloadTrace is
// the result.
type (
	WorkloadConfig = workload.Config
	WorkloadTrace  = workload.Trace
	WorkloadCDF    = workload.CDF
	IncastConfig   = workload.IncastConfig
)

// GenerateWorkload synthesizes a trace of flows.
func GenerateWorkload(cfg WorkloadConfig) (*WorkloadTrace, error) { return workload.Generate(cfg) }

// GoogleWorkload, FBHadoopWorkload and WebSearchWorkload return the embedded
// industry flow-size distributions of Fig 4.
func GoogleWorkload() *WorkloadCDF    { return workload.Google() }
func FBHadoopWorkload() *WorkloadCDF  { return workload.FBHadoop() }
func WebSearchWorkload() *WorkloadCDF { return workload.WebSearch() }

// WorkloadByName resolves "google", "fb_hadoop" or "websearch".
func WorkloadByName(name string) (*WorkloadCDF, error) { return workload.ByName(name) }

// Statistics types exposed by Result.
type (
	// FCTCollector aggregates flow-completion-time slowdowns by flow size.
	FCTCollector = stats.FCTCollector
	// Distribution is a sampled scalar distribution (percentiles, CDF).
	Distribution = stats.Distribution
)
