// Package switchsim implements the simulated shared-buffer switch: ingress
// admission and PFC, ECN marking, HPCC telemetry stamping, per-egress-port
// physical queues with deficit-round-robin scheduling, and — when enabled —
// the BFC engine from internal/core driving per-flow placement, pausing and
// resuming.
//
// One switch implementation covers every scheme in the paper's evaluation;
// the differences (single FIFO vs stochastic fair queueing vs BFC dynamic
// queues, PFC on/off, ECN on/off, INT on/off, buffer size) are configuration.
package switchsim

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// Config parameterizes one switch.
type Config struct {
	// Scheduler is the shared discrete-event scheduler.
	Scheduler *eventsim.Scheduler
	// Topo and Node identify this switch in the topology (used for routing).
	Topo *topology.Topology
	Node *topology.Node

	// MTU is the maximum data payload per packet (1000 B in the paper).
	MTU units.Bytes

	// NumQueues is the number of physical data queues per egress port.
	NumQueues int
	// BufferSize is the shared packet buffer (12 MB in the paper).
	BufferSize units.Bytes
	// InfiniteBuffer disables admission control and drops (Ideal-FQ).
	InfiniteBuffer bool

	// EnablePFC turns on priority flow control toward upstream devices.
	EnablePFC bool
	// PFCThresholdFrac is the dynamic PFC threshold as a fraction of the free
	// shared buffer (0.11 in the paper's configuration).
	PFCThresholdFrac float64

	// EnableECN turns on RED-style ECN marking at egress.
	EnableECN bool
	// ECNKmin / ECNKmax / ECNPmax are the marking thresholds (100 KB, 400 KB,
	// and 1.0 in the paper's DCQCN configuration).
	ECNKmin, ECNKmax units.Bytes
	ECNPmax          float64

	// EnableINT turns on HPCC in-band telemetry stamping on dequeue.
	EnableINT bool

	// SFQ statically hashes flows onto the NumQueues physical queues
	// (DCQCN+Win+SFQ and Ideal-FQ). Ignored when BFC is set.
	SFQ bool

	// BFC enables the BFC engine with the given configuration. Nil disables
	// BFC (the switch then uses SFQ or a single FIFO). New derives the
	// engine's QueuesPerPort, HRTT, τ and salt from the switch itself, and
	// core.(*Engine).Init validates the result.
	BFC *core.Config

	// Seed drives ECN marking randomness.
	Seed int64

	// Recorder, when non-nil, receives flight-recorder events (drops, PFC
	// pause/resume, BFC queue pause/resume and assignments). Recording is
	// observational only and never alters switch behavior.
	Recorder telemetry.Recorder

	// Pool recycles packet objects across the simulation (see packet.Pool
	// for the ownership rules); the switch recycles the packets it drops.
	Pool *packet.Pool

	// Filters recycles the BFC pause filters (see bloom.Pool): the switch
	// takes its frames' filters from it and puts back those its upstream
	// states displace. Nil allocates each filter and leaves it to the
	// garbage collector.
	Filters *bloom.Pool

	// Slabs holds the state of the switches of one shard (NewSlabs), which
	// New carves this switch from. Nil gives the switch slabs of its own.
	Slabs *Slabs
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Scheduler == nil || c.Topo == nil || c.Node == nil || c.Pool == nil {
		return fmt.Errorf("switchsim: missing scheduler, topology, node or packet pool")
	}
	if c.Node.Kind != topology.Switch {
		return fmt.Errorf("switchsim: node %q is not a switch", c.Node.Name)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("switchsim: MTU must be positive")
	}
	if c.NumQueues <= 0 {
		return fmt.Errorf("switchsim: NumQueues must be positive")
	}
	if !c.InfiniteBuffer && c.BufferSize <= 0 {
		return fmt.Errorf("switchsim: finite buffer needs a positive size")
	}
	if c.EnablePFC && (c.PFCThresholdFrac <= 0 || c.PFCThresholdFrac > 1) {
		return fmt.Errorf("switchsim: PFC threshold fraction %v out of range", c.PFCThresholdFrac)
	}
	if c.EnableECN {
		if c.ECNKmin <= 0 || c.ECNKmax <= c.ECNKmin || c.ECNPmax <= 0 || c.ECNPmax > 1 {
			return fmt.Errorf("switchsim: invalid ECN thresholds kmin=%v kmax=%v pmax=%v",
				c.ECNKmin, c.ECNKmax, c.ECNPmax)
		}
	}
	return nil
}

// Stats are the per-switch counters the evaluation reports.
type Stats struct {
	// DataPacketsIn / DataPacketsOut count data packets received / forwarded;
	// Switch.Audit holds them to the packets queued.
	DataPacketsIn  uint64
	DataPacketsOut uint64
	// Drops counts data packets dropped at admission (shared buffer full).
	Drops uint64
	// NoRouteDrops counts packets, data or control, dropped because their
	// destination was transiently unreachable after a scenario link failure;
	// DataPacketsIn does not count them.
	NoRouteDrops uint64
	// ECNMarks counts packets marked congestion-experienced.
	ECNMarks uint64
	// PFCPausesSent counts PFC pause frames sent upstream.
	PFCPausesSent uint64
	// BFCFramesSent counts bloom-filter pause frames sent upstream.
	BFCFramesSent uint64
}
