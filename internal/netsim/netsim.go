// Package netsim provides the plumbing that connects simulated devices
// (switches and NICs): the Device interface, unidirectional Links with
// serialization and propagation delay, and link-level control frames (PFC
// pause/resume and BFC bloom-filter pause frames).
package netsim

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/units"
)

// ControlFrame is a link-level control message delivered to the peer after
// the link propagation delay. Control frames model PFC and BFC pause frames;
// they occupy neither data-queue capacity nor link time.
type ControlFrame interface {
	isControlFrame()
}

// PFCFrame is a Priority Flow Control pause or resume for the data class on
// the link it is received on.
type PFCFrame struct {
	Pause bool
}

func (PFCFrame) isControlFrame() {}

// BFCPauseFrame carries the downstream switch's bloom filter of paused VFIDs
// for the link it is received on (§3.6 of the paper). The frame owns the
// filter while it travels (see bloom.Pool); nil means nothing is paused.
type BFCPauseFrame struct {
	Filter *bloom.Filter
}

func (BFCPauseFrame) isControlFrame() {}

// Device is a node in the simulated network (a switch or a host NIC).
type Device interface {
	// ID returns the topology node ID of the device.
	ID() packet.NodeID
	// AttachLink gives the device the outgoing link for one of its ports.
	// Called once per port during network construction.
	AttachLink(port int, link *Link)
	// ReceivePacket delivers a packet that has fully arrived on the given
	// ingress port.
	ReceivePacket(ingress int, p *packet.Packet)
	// ReceiveControl delivers a link-level control frame that arrived on the
	// given port.
	ReceiveControl(port int, frame ControlFrame)
}

// Link is a unidirectional transmission path from one device port to a peer
// device port. A bidirectional physical link is modeled as two Links. A Link
// is set up by Init, in place, so a fabric may keep its links in one slab; it
// must not be copied afterwards, because its callbacks point at it.
type Link struct {
	sched  *eventsim.Scheduler
	rate   units.Rate
	delay  units.Time
	peer   Device
	toPort int
	// name identifies the link in the busy-link panic; it may be empty.
	name string

	// boundary, when non-nil, marks a cross-shard link: deliveries are pushed
	// onto the queue instead of scheduled locally, and the coordinator drains
	// them into the receiving shard's scheduler at the next barrier.
	boundary *Boundary

	busy bool
	// down marks a failed link (scenario engine). The sending device is not
	// signalled — as on a real cut cable it keeps serializing — but nothing
	// sent or in flight is delivered: the delivery event checks down at the
	// arrival instant, so packets already propagating when the link fails
	// are lost too. Lost packets go to OnStranded, which must recycle them.
	down bool

	// OnStranded receives every packet lost on the down link. It is the
	// packet's terminal owner (it must Pool.Put or otherwise consume it).
	// It runs where the delivery does: on the receiving device's scheduler,
	// which for a cross-shard link is not the sender's. Nil drops the packet
	// to the garbage collector.
	OnStranded func(*packet.Packet)
	// Filters takes back the filter of a BFC pause frame lost on the down
	// link. Like OnStranded it belongs to the receiving side, where the loss
	// is found. Nil leaves lost filters to the garbage collector.
	Filters *bloom.Pool
	// filtersSent counts the BFC pause frames with a filter that the link
	// took, filtersLanded those it delivered or lost. The sending side writes
	// the first and the receiving side the second, so on a cross-shard link
	// each shard writes only its own.
	filtersSent, filtersLanded uint64

	// Hot-path callbacks, allocated once at construction so Transmit and
	// SendControl do not create closures per send: serDone fires when
	// serialization ends (and invokes the sender's pendingDone), deliver
	// hands a packet to the peer after the propagation delay, deliverCtrl
	// does the same for a control frame.
	serDone     func()
	deliver     func(any)
	deliverCtrl func(any)
	pendingDone func()

	// Statistics.
	pausedSince units.Time
	pausedTotal units.Time
	isPaused    bool
}

// NewLink returns a link set up by Init.
func NewLink(sched *eventsim.Scheduler, name string, rate units.Rate, delay units.Time, peer Device, toPort int) *Link {
	l := new(Link)
	l.Init(sched, name, rate, delay, peer, toPort)
	return l
}

// Init sets l up to deliver to peer's port toPort, replacing whatever l held.
func (l *Link) Init(sched *eventsim.Scheduler, name string, rate units.Rate, delay units.Time, peer Device, toPort int) {
	if sched == nil || peer == nil {
		panic("netsim: nil scheduler or peer")
	}
	if rate <= 0 || delay < 0 {
		panic("netsim: invalid link parameters")
	}
	*l = Link{sched: sched, name: name, rate: rate, delay: delay, peer: peer, toPort: toPort}
	l.serDone = func() {
		l.busy = false
		done := l.pendingDone
		l.pendingDone = nil
		if done != nil {
			done()
		}
	}
	l.deliver = func(x any) {
		p := x.(*packet.Packet)
		if l.down {
			if l.OnStranded != nil {
				l.OnStranded(p)
			}
			return
		}
		l.peer.ReceivePacket(l.toPort, p)
	}
	l.deliverCtrl = func(x any) {
		f, bfc := x.(BFCPauseFrame)
		if bfc && f.Filter != nil {
			l.filtersLanded++
		}
		if l.down {
			// Control frames on a cut link are simply lost; a lost filter
			// goes back to the pool.
			if bfc {
				l.Filters.Put(f.Filter)
			}
			return
		}
		l.peer.ReceiveControl(l.toPort, x.(ControlFrame))
	}
}

// SetBoundary marks the link as crossing a shard boundary: every delivery is
// pushed onto b instead of being scheduled on the sender's scheduler. Pass
// nil to restore local delivery.
func (l *Link) SetBoundary(b *Boundary) { l.boundary = b }

// Busy reports whether a packet is currently being serialized onto the link.
func (l *Link) Busy() bool { return l.busy }

// SetDown fails (true) or recovers (false) the link. While down, every
// packet or control frame whose delivery instant falls inside the outage —
// including those already in flight — is lost; data packets are handed to
// OnStranded.
func (l *Link) SetDown(down bool) { l.down = down }

// SetRate changes the link rate for subsequent transmissions (an in-progress
// serialization keeps its original timing).
func (l *Link) SetRate(r units.Rate) {
	if r <= 0 {
		panic("netsim: link rate must be positive")
	}
	l.rate = r
}

// SetDelay changes the propagation delay for subsequent transmissions.
func (l *Link) SetDelay(d units.Time) {
	if d < 0 {
		panic("netsim: negative link delay")
	}
	l.delay = d
}

// Transmit serializes p onto the link. onDone is invoked when serialization
// completes (the sender may then start the next packet); the packet is
// delivered to the peer one propagation delay after that. Transmit panics if
// the link is already busy — the sending device must serialize its own
// transmissions.
func (l *Link) Transmit(p *packet.Packet, onDone func()) {
	if l.busy {
		panic(fmt.Sprintf("netsim: transmit on busy link %q to node %d port %d", l.name, l.peer.ID(), l.toPort))
	}
	if p == nil {
		panic("netsim: transmitting nil packet")
	}
	l.busy = true
	ser := units.SerializationTime(p.Size, l.rate)
	// The busy-link panic above guarantees at most one serialization is in
	// flight, so a single pendingDone field (consumed by serDone) suffices.
	l.pendingDone = onDone
	now := l.sched.Now()
	l.sched.Schedule(now+ser, l.serDone)
	at := now + ser + l.delay
	// The delivery carries the transported packet's flow ID as its causal
	// tag, not the inherited one: a busy egress port serializes queued
	// packets from whichever flow's event freed it, and same-key delivery
	// ties must order by the flows' creation order.
	var tag uint64
	if p.Flow != nil {
		tag = uint64(p.Flow.ID)
	}
	if l.boundary != nil {
		k := l.sched.ChildKey(at)
		k.Tag = tag
		l.boundary.Push(BoundaryMsg{Key: k, Link: l, Pkt: p})
		return
	}
	l.sched.ScheduleCallTagged(at, tag, l.deliver, p)
}

// SendControl delivers a control frame to the peer after the propagation
// delay. Control frames are not serialized against data traffic: they are
// tiny and sent at the highest priority.
func (l *Link) SendControl(frame ControlFrame) {
	if f, ok := frame.(BFCPauseFrame); ok && f.Filter != nil {
		l.filtersSent++
	}
	at := l.sched.Now() + l.delay
	if l.boundary != nil {
		l.boundary.Push(BoundaryMsg{Key: l.sched.ChildKey(at), Link: l, Ctrl: frame})
		return
	}
	// frame is already an interface value, so the any conversion is free;
	// the pre-allocated deliverCtrl keeps this path closure-free too.
	l.sched.ScheduleCall(at, l.deliverCtrl, frame)
}

// FiltersInFlight returns the number of BFC pause filters the link has taken
// and not yet delivered or lost. Read it only while neither side runs.
func (l *Link) FiltersInFlight() int { return int(l.filtersSent - l.filtersLanded) }

// MarkPaused records the beginning or end of a PFC pause affecting this link
// (called by the sending device when it receives pause/resume from the peer).
func (l *Link) MarkPaused(paused bool) {
	now := l.sched.Now()
	if paused && !l.isPaused {
		l.isPaused = true
		l.pausedSince = now
	} else if !paused && l.isPaused {
		l.isPaused = false
		l.pausedTotal += now - l.pausedSince
	}
}

// PausedTime returns the cumulative time the link has been PFC-paused, up to
// now.
func (l *Link) PausedTime() units.Time {
	total := l.pausedTotal
	if l.isPaused {
		total += l.sched.Now() - l.pausedSince
	}
	return total
}
