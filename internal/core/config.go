// Package core implements the paper's primary contribution: the per-switch
// Backpressure Flow Control (BFC) engine.
//
// The engine owns the switch's virtual-flow state (the VFID hash table of
// §3.8), decides for every arriving data packet which physical queue it joins
// (§3.3), decides when to pause and resume individual virtual flows (§3.4,
// §3.5), and produces the periodic per-ingress bloom-filter pause frames that
// carry those decisions upstream (§3.6). The companion UpstreamState type
// implements the other half of the protocol: matching the head packet of each
// physical queue against the most recent filter received from the downstream
// device.
//
// The engine is deliberately independent of the switch data path: it never
// touches packet FIFOs directly, only its own byte/flow accounting, so it can
// be unit-tested exhaustively and reused by both the switch model and tests.
package core

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/flowtable"
	"bfc/internal/units"
)

// Config parameterizes a BFC engine. The zero value is not valid; use
// DefaultConfig and override what the experiment needs.
type Config struct {
	// NumVFIDs is the size of the virtual flow ID space (16K in the paper).
	// The flow table's geometry, 4-entry buckets and a 100-entry overflow
	// cache, is flowtable's.
	NumVFIDs int

	// QueuesPerPort is the number of physical data queues per egress port
	// (32 in the paper; swept 8–128 in Fig 12). switchsim.New sets it to the
	// switch's NumQueues.
	QueuesPerPort int

	// Bloom configures the pause-frame bloom filters (128 B, 4 hashes).
	Bloom bloom.Params

	// HRTT is the one-hop round-trip time (2 us in the paper's topologies)
	// and Tau the pause-frame period (half of HRTT, §3.6). switchsim.New sets
	// both per switch, from the switch's own ports; DefaultConfig's values
	// serve engines built directly.
	HRTT units.Time
	Tau  units.Time

	// DynamicAssignment selects BFC's dynamic physical-queue assignment. When
	// false the engine behaves like the straw proposal BFC-VFID (§3.2):
	// flows are statically hashed onto physical queues.
	DynamicAssignment bool

	// UseHighPriorityQueue enables the per-egress high-priority queue for the
	// first packet of each flow (§3.7).
	UseHighPriorityQueue bool

	// ResumeAll disables the resume throttling of resumePerInterval (the
	// BFC-BufferOpt ablation of Fig 10): every paused flow of a physical
	// queue is resumed as soon as the queue drops below the pause threshold.
	ResumeAll bool

	// Salt salts the flow hash that picks a physical queue when every queue
	// at an egress port is already occupied (§3.3). switchsim.New sets it per
	// switch.
	Salt uint64
}

// resumePerInterval is the number of flows resumed per physical queue per
// pause-frame interval τ (§3.5): one, i.e. two per HRTT.
const resumePerInterval = 1

// DefaultConfig returns the configuration used by the paper's main
// experiments (§4.1).
func DefaultConfig() Config {
	return Config{
		NumVFIDs:             flowtable.DefaultNumVFIDs,
		QueuesPerPort:        32,
		Bloom:                bloom.DefaultParams(),
		HRTT:                 2 * units.Microsecond,
		Tau:                  1 * units.Microsecond,
		DynamicAssignment:    true,
		UseHighPriorityQueue: true,
		ResumeAll:            false,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumVFIDs <= 0 {
		return fmt.Errorf("core: NumVFIDs must be positive")
	}
	if c.QueuesPerPort <= 0 {
		return fmt.Errorf("core: QueuesPerPort must be positive")
	}
	if c.Bloom.SizeBytes <= 0 || c.Bloom.Hashes <= 0 {
		return fmt.Errorf("core: invalid bloom parameters %+v", c.Bloom)
	}
	if c.Bloom.SizeBytes > bloom.MaxSizeBytes {
		return fmt.Errorf("core: bloom filter of %d B exceeds the %d B a pause frame holds", c.Bloom.SizeBytes, bloom.MaxSizeBytes)
	}
	if c.HRTT <= 0 || c.Tau <= 0 {
		return fmt.Errorf("core: HRTT and Tau must be positive")
	}
	return nil
}

// Stats counts engine-level events used by the evaluation figures.
type Stats struct {
	// Assignments counts flow-to-physical-queue assignments.
	Assignments uint64
	// CollidedAssignments counts assignments to a queue that already had at
	// least one other active flow (the "collisions" of Fig 7b and 12a).
	CollidedAssignments uint64
	// VFIDCollisions counts packets of a flow that found its table entry
	// occupied by a different concrete flow (Fig 13a).
	VFIDCollisions uint64
	// TableOverflowPackets counts packets handled via the per-egress overflow
	// queue because neither the bucket nor the overflow cache had room.
	TableOverflowPackets uint64
	// DataPackets counts all data packets processed by OnArrival.
	DataPackets uint64
	// Pauses and Resumes count per-flow pause/resume transitions.
	Pauses  uint64
	Resumes uint64
	// MaxActiveFlows is the high-water mark of simultaneously active virtual
	// flows at the switch.
	MaxActiveFlows int
}
