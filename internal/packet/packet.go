// Package packet defines the flow and packet types exchanged between the
// simulated NICs and switches, the control-frame kinds used by the congestion
// control schemes, and the 5-tuple hashing that produces BFC virtual flow IDs
// (VFIDs).
package packet

import (
	"fmt"
	"sync/atomic"

	"bfc/internal/units"
)

// NodeID identifies a device (host or switch) in the topology.
type NodeID int32

// FlowID is a unique identifier for a flow within a simulation run.
type FlowID int64

// Priority levels used by the switch scheduler. Lower value = higher
// priority.
type Priority uint8

const (
	// PrioControl carries ACK/NACK/CNP and is never paused.
	PrioControl Priority = iota
	// PrioData is regular data traffic.
	PrioData
)

// Kind distinguishes the packet types the simulator exchanges.
type Kind uint8

const (
	// Data is a payload-carrying packet.
	Data Kind = iota
	// Ack acknowledges in-order receipt of data up to Seq (cumulative).
	Ack
	// Nack requests a Go-Back-N retransmission from Seq.
	Nack
	// CNP is a DCQCN congestion notification packet.
	CNP
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case CNP:
		return "CNP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Header sizes in bytes. DataHeaderSize approximates Ethernet + IP + UDP +
// RoCEv2 BTH overhead; control packets are minimum-size frames.
const (
	DataHeaderSize    units.Bytes = 48
	ControlPacketSize units.Bytes = 64
)

// Flow is one message transfer between two hosts. It is created by the
// workload generator and owned by the sending NIC. The 5-tuple must be final
// before the flow enters the simulation: Hash caches the tuple hash that
// VFIDOf, QueueOf and topology.ECMPPick all draw from, each with its own salt.
// The ID names the flow (traces, causal tags) and must be unique in a run; no
// simulator state is sized or indexed by it.
type Flow struct {
	ID      FlowID
	Src     NodeID
	Dst     NodeID
	SrcPort uint16
	DstPort uint16

	// Size is the application payload in bytes.
	Size units.Bytes
	// StartTime is when the flow arrives at the sending NIC.
	StartTime units.Time

	// IsIncast marks flows belonging to synthetic incast bursts; the paper
	// reports FCT statistics for non-incast traffic only.
	IsIncast bool
	// LongLived marks open-ended flows (used in the fan-in and buffer
	// management experiments); they never complete.
	LongLived bool

	// SendSlot and RecvSlot index the flow's NIC state: its record in the
	// sender slab its source's NIC reads and in the receiver slab its
	// destination's NIC reads (see nic.Slabs). The simulation writes both
	// before the run starts, numbering base flows first and injected
	// scenario flows after them, densely within each shard.
	SendSlot, RecvSlot int32

	// FinishTime is set by the simulation when the receiver gets the last
	// byte. Zero means not finished.
	FinishTime units.Time

	// hash caches Hash's tuple hash; zero means "not yet computed". It is
	// atomic because packets referencing the flow cross shard goroutines in
	// a partitioned run; every writer stores the same value.
	hash uint64
}

// NumPackets returns the number of MTU-sized packets the flow needs given the
// payload capacity per packet.
func (f *Flow) NumPackets(payloadPerPacket units.Bytes) int {
	if f.Size == 0 {
		return 1 // zero-byte flows still send one (empty) packet
	}
	return int((f.Size + payloadPerPacket - 1) / payloadPerPacket)
}

// FCT returns the flow completion time, or 0 if the flow has not finished.
func (f *Flow) FCT() units.Time {
	if f.FinishTime == 0 {
		return 0
	}
	return f.FinishTime - f.StartTime
}

// String implements fmt.Stringer.
func (f *Flow) String() string {
	return fmt.Sprintf("flow %d %d->%d size=%v", f.ID, f.Src, f.Dst, f.Size)
}

// INTHop is the per-hop in-band telemetry record appended by switches when
// the HPCC scheme is enabled, mirroring the fields HPCC requires: queue
// length, cumulative transmitted bytes, link capacity, and a timestamp.
type INTHop struct {
	QLen    units.Bytes
	TxBytes units.Bytes
	Rate    units.Rate
	TS      units.Time
}

// Packet is the unit of transfer between devices. A Packet is created once at
// the sender and handed from device to device (the simulator never copies
// payload bytes; Size is bookkeeping).
type Packet struct {
	Kind Kind
	Flow *Flow

	// Seq is the zero-based index of this data packet within its flow. For
	// Ack/Nack it is the cumulative acknowledgment / retransmission point.
	Seq int
	// Size is the wire size in bytes including headers.
	Size units.Bytes
	// Payload is the application bytes carried (Size minus headers).
	Payload units.Bytes

	// ECN is the congestion-experienced codepoint, set by switches when ECN
	// marking is enabled; echoed by the receiver into CNPs (DCQCN) or ACKs.
	ECN bool
	// ECE is the echoed congestion signal on an Ack.
	ECE bool

	// First marks the first packet of a flow. The sending NIC sets it, and a
	// BFC switch places such packets in the per-egress high-priority queue
	// (§3.7).
	First bool

	// INT is the HPCC telemetry stack; nil unless HPCC is enabled. On an Ack
	// it is the reflected stack from the data packet being acknowledged.
	INT []INTHop

	// Priority is written by the sending NIC and read by nothing: the
	// scheduler classes packets by Kind and First. It stays until the
	// benchmark's NIC microdriver stops writing it.
	Priority Priority

	// ArrivalPort is simulator-transient bookkeeping, valid only while the
	// packet is queued at a single device and rewritten at every hop. It lets
	// a switch recover, at dequeue time, which ingress the packet used
	// without a second lookup.
	ArrivalPort int

	// pooled marks packets sitting in a Pool free-list; Pool.Put uses it to
	// detect double-recycling (two devices believing they own the packet).
	pooled bool
}

// IsControl reports whether the packet travels in the unpausable control
// class (everything except data).
func (p *Packet) IsControl() bool { return p.Kind != Data }

// VFID is the virtual flow identifier used by BFC: a hash of the flow
// 5-tuple, identical at every switch in the network (§3.3).
type VFID uint32

// Gamma is splitmix64's golden-ratio increment, the step between
// consecutive states of its stream.
const Gamma uint64 = 0x9e3779b97f4a7c15

// Mix64 is one splitmix64 output: x advanced by Gamma, then the avalanche
// finaliser. Element i of the counter-based stream seeded by seed is
// Mix64(seed + i*Gamma). Flow hashes, bloom filter positions, the streaming
// sketch's reservoir draws and fleet backoff jitter all draw from it.
func Mix64(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Salts make VFIDOf and QueueOf independent draws from the one tuple hash
// (topology.ECMPPick salts per switch).
const (
	saltVFID  uint64 = 0x5846494400000001
	saltQueue uint64 = 0x5155455500000002
)

// Hash returns the flow's 5-tuple hash salted for one use: Mix64(h ^ salt),
// where h is the tuple hash (protocol is implicit: all simulated traffic is
// RoCEv2/UDP), computed once and cached on the flow, so per-packet hashing
// at every hop costs a load and one finaliser.
func (f *Flow) Hash(salt uint64) uint64 {
	h := atomic.LoadUint64(&f.hash)
	if h == 0 {
		h = Mix64(Mix64(uint64(uint32(f.Src))<<32|uint64(uint32(f.Dst))) ^ uint64(f.SrcPort)<<16 ^ uint64(f.DstPort))
		atomic.StoreUint64(&f.hash, h)
	}
	return Mix64(h ^ salt)
}

// VFIDOf maps the flow's 5-tuple into the VFID space [0, space). All switches
// use the same function so pause frames are interpreted consistently network
// wide.
func (f *Flow) VFIDOf(space int) VFID {
	if space <= 0 {
		panic("packet: VFID space must be positive")
	}
	return VFID(f.Hash(saltVFID) % uint64(space))
}

// QueueOf maps the flow's 5-tuple onto one of n FIFO queues; stochastic fair
// queueing and the BFC-VFID straw proposal's static assignment use it.
func (f *Flow) QueueOf(n int) int {
	if n <= 0 {
		panic("packet: queue count must be positive")
	}
	return int(f.Hash(saltQueue) % uint64(n))
}
