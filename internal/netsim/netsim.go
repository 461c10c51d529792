// Package netsim provides the plumbing that connects simulated devices
// (switches and NICs): the Device interface, unidirectional Links with
// serialization and propagation delay, and link-level control frames (PFC
// pause/resume and BFC bloom-filter pause frames).
//
// A link allocates nothing, at set-up or per send. Its events call
// package-level functions with an argument that names the link: a
// serialization-complete event the link itself, a packet's delivery the
// packet, which carries its link while in flight (packet.Packet.Wire), and a
// control frame's delivery a record of link and frame drawn from the
// receiving shard's Frames. A cross-shard delivery waits in a Boundary queue
// and is scheduled the same way when the queue drains.
package netsim

import (
	"fmt"
	"unsafe"

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

// Sender is the device port a link serializes for. The link calls TxDone
// when a packet's serialization completes, and the sender may then start the
// next. A switch port and a NIC implement it, so handing a link its sender
// takes no closure.
type Sender interface {
	TxDone()
}

// Link is a unidirectional transmission path from one device port to a peer
// device port. A bidirectional physical link is modeled as two Links. A Link
// is set up by Init, in place, so a fabric keeps its links in one slab per
// shard; it must not be copied afterwards, because its queued events and the
// packets and frames it carries point at it. It allocates nothing of its own:
// its events call serDone, landPacket and landFrame.
type Link struct {
	sched  *eventsim.Scheduler
	rate   units.Rate
	delay  units.Time
	peer   Device
	toPort int
	// target is the peer's node ID, the owner every delivery runs for.
	target int32
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
	// Frames holds the records control frames travel in. It belongs to the
	// receiving side too: a local link takes a record at SendControl, a
	// cross-shard one when the coordinator drains its boundary queue, and
	// the delivery puts it back, so only the receiving shard, or the
	// coordinator between windows, touches it. Init leaves it nil, and the
	// link's first control frame then panics; NewLink gives the link one of
	// its own.
	Frames *Frames
	// filtersSent counts the BFC pause frames with a filter that the link
	// took, filtersLanded those it delivered or lost. The sending side writes
	// the first and the receiving side the second, so on a cross-shard link
	// each shard writes only its own.
	filtersSent, filtersLanded uint64

	// sender is the port the serialization in progress is for; serDone
	// calls its TxDone.
	sender Sender

	// Statistics.
	pausedSince units.Time
	pausedTotal units.Time
	isPaused    bool
}

// NewLink returns a link set up by Init, with a Frames of its own.
func NewLink(sched *eventsim.Scheduler, name string, rate units.Rate, delay units.Time, peer Device, toPort int) *Link {
	l := new(Link)
	l.Init(sched, name, rate, delay, peer, toPort)
	l.Frames = new(Frames)
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
	*l = Link{sched: sched, name: name, rate: rate, delay: delay, peer: peer, toPort: toPort, target: int32(peer.ID())}
}

// serDone is every serialization-complete event's callback; its argument is
// the link.
func serDone(a any) {
	l := a.(*Link)
	l.busy = false
	from := l.sender
	l.sender = nil
	if from != nil {
		from.TxDone()
	}
}

// landPacket is every packet delivery's callback; its argument is the packet,
// which names its link in Wire. It hands the packet to the peer or, on a
// down link, to OnStranded.
func landPacket(a any) {
	p := a.(*packet.Packet)
	l := (*Link)(p.Wire)
	p.Wire = nil
	if l.down {
		if l.OnStranded != nil {
			l.OnStranded(p)
		}
		return
	}
	l.peer.ReceivePacket(l.toPort, p)
}

// landFrame is every control frame delivery's callback; its argument is the
// frame's record, which goes back to the link's Frames before the frame is
// handed to the peer or, on a down link, lost.
func landFrame(a any) {
	m := a.(*frameMsg)
	l, frame := m.link, m.frame
	l.Frames.put(m)
	f, bfc := frame.(BFCPauseFrame)
	if bfc && f.Filter != nil {
		l.filtersLanded++
	}
	if l.down {
		// Control frames on a cut link are simply lost; a lost filter goes
		// back to the pool.
		if bfc {
			l.Filters.Put(f.Filter)
		}
		return
	}
	l.peer.ReceiveControl(l.toPort, frame)
}

// frameMsg is a control frame in flight and the link carrying it.
type frameMsg struct {
	link  *Link
	frame ControlFrame
}

// Frames is a free list of the records control frames travel in, owned by
// the side that receives them (see Link.Frames): a run keeps one per shard.
// A miss carves the next record from a page of framePage, so the records in
// flight cost one heap object per page, and a steady state none. The zero
// value is ready to use.
type Frames struct {
	free []*frameMsg
	page []frameMsg
}

// framePage is the number of records one page holds (24 B each).
const framePage = 128

// get returns a record holding frame on its way over l.
func (fs *Frames) get(l *Link, frame ControlFrame) *frameMsg {
	var m *frameMsg
	if n := len(fs.free); n > 0 {
		m = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		if len(fs.page) == 0 {
			fs.page = make([]frameMsg, framePage)
		}
		m = &fs.page[0]
		fs.page = fs.page[1:]
	}
	*m = frameMsg{link: l, frame: frame}
	return m
}

// put takes back a record whose frame has landed; the record drops its
// references so that a free one pins neither a link nor a filter.
func (fs *Frames) put(m *frameMsg) {
	*m = frameMsg{}
	fs.free = append(fs.free, m)
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

// Transmit serializes p onto the link. from's TxDone is called when
// serialization completes (the sender may then start the next packet; nil
// calls nothing); the packet is delivered to the peer one propagation delay
// after that. Transmit panics if the link is already busy — the sending
// device must serialize its own transmissions.
func (l *Link) Transmit(p *packet.Packet, from Sender) {
	if l.busy {
		panic(fmt.Sprintf("netsim: transmit on busy link %q to node %d port %d", l.name, l.peer.ID(), l.toPort))
	}
	if p == nil {
		panic("netsim: transmitting nil packet")
	}
	l.busy = true
	ser := units.SerializationTime(p.Size, l.rate)
	// The busy-link panic above guarantees at most one serialization is in
	// flight, so a single sender field (consumed by serDone) suffices.
	l.sender = from
	now := l.sched.Now()
	l.sched.ScheduleCall(now+ser, serDone, l)
	at := now + ser + l.delay
	if l.boundary != nil {
		l.boundary.Push(BoundaryMsg{Key: l.sched.ChildKey(at, l.target), Link: l, Pkt: p})
		return
	}
	p.Wire = unsafe.Pointer(l)
	l.sched.ScheduleCallTo(at, l.target, landPacket, p)
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
		l.boundary.Push(BoundaryMsg{Key: l.sched.ChildKey(at, l.target), Link: l, Ctrl: frame})
		return
	}
	l.sched.ScheduleCallTo(at, l.target, landFrame, l.Frames.get(l, frame))
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
