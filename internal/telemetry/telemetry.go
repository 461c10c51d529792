// Package telemetry is the simulator's observability layer: a deterministic
// sim-time flight recorder for the runtime packages (nic, switchsim, netsim,
// sim, scenario), a bounded time-series sampler attached to sim.Result, and
// the hand-rolled Prometheus-style metrics registry behind bfcd's /metrics.
//
// The design contract is that observation never perturbs the simulation.
// Recording reads the event-scheduler clock but never schedules events,
// allocates from the packet pool, or consumes RNG, so a run's Result — and
// therefore every golden digest — is byte-identical with telemetry enabled or
// disabled. The disabled path is a single nil check at each emit site.
package telemetry

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindFlowStart marks a flow starting at its source NIC (Node = source
	// host, Value = flow bytes).
	KindFlowStart Kind = iota
	// KindFlowFinish marks in-order delivery of a flow's last byte (Node =
	// destination host, Value = flow bytes).
	KindFlowFinish
	// KindDrop marks a data packet dropped at shared-buffer admission
	// (Node = switch, Port = ingress, Value = packet bytes).
	KindDrop
	// KindNoRouteDrop marks a packet dropped because its destination was
	// transiently unreachable after a link failure.
	KindNoRouteDrop
	// KindStranded marks a packet lost in flight on a failed link (Node/Port
	// identify the sending end of the link).
	KindStranded
	// KindPFCPause marks a PFC pause frame sent upstream (Node = pausing
	// switch, Port = ingress port being paused).
	KindPFCPause
	// KindPFCResume marks the matching PFC resume frame.
	KindPFCResume
	// KindBFCPause marks a physical queue entering the BFC-paused state at the
	// upstream device (Node, Port = egress, Queue = physical queue).
	KindBFCPause
	// KindBFCResume marks the queue leaving the paused state.
	KindBFCResume
	// KindQueueAssign marks a BFC dynamic queue assignment of a newly active
	// flow (Node, Port = egress, Queue, Flow; Value = 1 when the assignment
	// collided with an occupied queue).
	KindQueueAssign
	// KindLinkDown marks a scenario link failure (Node/Port = one end;
	// Value = ECMP paths rerouted).
	KindLinkDown
	// KindLinkUp marks the link recovering (Value = paths rerouted back).
	KindLinkUp
	// KindLinkDegrade marks a scenario rate/delay degradation.
	KindLinkDegrade
	// KindScenario marks any other scenario event being applied (Value = the
	// event's index in the spec).
	KindScenario
	numKinds
)

var kindNames = [numKinds]string{
	KindFlowStart:   "flow-start",
	KindFlowFinish:  "flow-finish",
	KindDrop:        "drop",
	KindNoRouteDrop: "no-route-drop",
	KindStranded:    "stranded",
	KindPFCPause:    "pfc-pause",
	KindPFCResume:   "pfc-resume",
	KindBFCPause:    "bfc-pause",
	KindBFCResume:   "bfc-resume",
	KindQueueAssign: "queue-assign",
	KindLinkDown:    "link-down",
	KindLinkUp:      "link-up",
	KindLinkDegrade: "link-degrade",
	KindScenario:    "scenario",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its stable name, so JSONL traces are
// readable and survive reordering of the enum.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("telemetry: unknown kind %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a kind name written by MarshalText.
func (k *Kind) UnmarshalText(text []byte) error {
	for i, name := range kindNames {
		if name == string(text) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", text)
}

// Event is one flight-recorder record. It is a small plain value — no
// pointers, no heap allocation per emit — so the ring buffer holds events by
// value and recording is pooled by construction. Fields that do not apply to
// a kind are zero (see the Kind constants for the per-kind meaning of
// Node/Port/Queue/Flow/Value).
type Event struct {
	// At is the simulation time of the event (picoseconds).
	At units.Time `json:"at"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the topology node the event happened at.
	Node packet.NodeID `json:"node"`
	// Port is the node-local port index, -1 when not applicable.
	Port int32 `json:"port"`
	// Queue is the physical queue index, -1 when not applicable.
	Queue int32 `json:"queue"`
	// Flow is the flow involved, 0 when not applicable.
	Flow packet.FlowID `json:"flow,omitempty"`
	// Value carries the kind-specific magnitude (bytes, reroute count, ...).
	Value int64 `json:"value,omitempty"`
}

// Recorder consumes flight-recorder events. Emit sites across the runtime
// hold a Recorder field and guard every emission with a nil check, so a
// disabled recorder costs one predictable branch per site and nothing else.
// Implementations must not block, allocate per event, or call back into the
// simulation.
type Recorder interface {
	Record(ev Event)
}
