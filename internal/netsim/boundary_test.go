package netsim

import (
	"testing"
	"unsafe"

	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/units"
)

// seqFrame is a control frame carrying its push index.
type seqFrame int

func (seqFrame) isControlFrame() {}

// seqLog is a device that logs the push index of every delivery, data packet
// (Seq) or control frame (seqFrame) alike, in arrival order.
type seqLog struct{ got []int }

func (d *seqLog) ID() packet.NodeID                     { return 1 }
func (d *seqLog) AttachLink(int, *Link)                 {}
func (d *seqLog) ReceivePacket(_ int, p *packet.Packet) { d.got = append(d.got, p.Seq) }
func (d *seqLog) ReceiveControl(_ int, f ControlFrame)  { d.got = append(d.got, int(f.(seqFrame))) }

// pushSeq pushes message number seq at instant at, keyed as the sender's
// seq-th schedule: every third one a control frame.
func pushSeq(b *Boundary, l *Link, at units.Time, seq int) {
	m := BoundaryMsg{Key: eventsim.Key{At: at, Seq: uint64(seq)}, Link: l}
	if seq%3 == 0 {
		m.Ctrl = seqFrame(seq)
	} else {
		m.Pkt = &packet.Packet{Kind: packet.Data, Size: 1000, Seq: seq}
	}
	b.Push(m)
}

func TestBoundaryFIFOAcrossCycles(t *testing.T) {
	// One FIFO across many windows of varying size, data packets and control
	// frames interleaved, starting from the zero value: within a cycle every
	// message fires at one instant, keyed by the sender's count, so the
	// receiver delivers them in the order they were pushed.
	s := eventsim.New()
	dst := &seqLog{}
	l := NewLink(s, "x->y", 100*units.Gbps, units.Microsecond, dst, 0)
	var b Boundary
	total := 0
	for cycle, n := range []int{3, 0, 1500, 1, 7, 4096, 2, 100_000, 5} {
		for i := 0; i < n; i++ {
			pushSeq(&b, l, units.Time(cycle+1), total)
			total++
		}
		if len(b.msgs) != n {
			t.Fatalf("cycle %d: Len = %d, want %d", cycle, len(b.msgs), n)
		}
		if got := b.DrainInto(s); got != n {
			t.Fatalf("cycle %d: DrainInto = %d, want %d", cycle, got, n)
		}
		if len(b.msgs) != 0 {
			t.Fatalf("cycle %d: %d messages left after drain", cycle, len(b.msgs))
		}
		s.Run()
	}
	if len(dst.got) != total {
		t.Fatalf("delivered %d, want %d", len(dst.got), total)
	}
	for i, seq := range dst.got {
		if seq != i {
			t.Fatalf("delivery %d has push index %d", i, seq)
		}
	}
	if st := b.Stats(); st.Pushes != uint64(total) || st.MaxDrain != 100_000 {
		t.Fatalf("stats = %+v, want pushes=%d max-drain=100000", st, total)
	}
}

func TestBoundaryDrainReleasesRefs(t *testing.T) {
	// The backing array outlives the drain, so every slot of it must be zeroed:
	// a stale *packet.Packet or frame there would pin a pooled object the
	// receiver has already recycled.
	s := eventsim.New()
	l := NewLink(s, "x->y", 100*units.Gbps, units.Microsecond, &seqLog{}, 0)
	var b Boundary
	for i := 0; i < 100; i++ {
		pushSeq(&b, l, 1, i)
	}
	b.DrainInto(s)
	for i := 0; i < 10; i++ { // a shorter window must not resurrect old slots
		pushSeq(&b, l, 1, i)
	}
	b.DrainInto(s)
	for i, m := range b.msgs[:cap(b.msgs)] {
		if m != (BoundaryMsg{}) {
			t.Fatalf("slot %d of %d still holds %+v after drain", i, cap(b.msgs), m)
		}
	}
}

func TestBoundarySteadyStateAllocFree(t *testing.T) {
	// Once the slice has grown to the largest window, a push-N/drain/run cycle
	// allocates nothing: capacity is kept across drains.
	s := eventsim.New()
	dst := &seqLog{}
	l := NewLink(s, "x->y", 100*units.Gbps, units.Microsecond, dst, 0)
	const n = 512
	msgs := make([]BoundaryMsg, n)
	for i := range msgs {
		msgs[i] = BoundaryMsg{Link: l, Pkt: &packet.Packet{Kind: packet.Data, Size: 1000, Seq: i}}
		if i%3 == 0 {
			msgs[i] = BoundaryMsg{Link: l, Ctrl: seqFrame(i)}
		}
	}
	var b Boundary
	at := units.Time(0)
	cycle := func() {
		at++
		for i := range msgs {
			msgs[i].Key = eventsim.Key{At: at, Seq: uint64(i)}
			b.Push(msgs[i])
		}
		b.DrainInto(s)
		dst.got = dst.got[:0]
		s.Run()
	}
	cycle() // grow the slice, the scheduler's arenas and the device's log
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("steady-state cycle allocates %.1f times, want 0", allocs)
	}
}

func TestBoundaryControlFrames(t *testing.T) {
	// Control frames ride the same queue as packets, and the drain schedules
	// the delivery callback a local link would.
	s := eventsim.New()
	dst := &fakeDevice{id: 1, sched: s}
	l := NewLink(s, "x->y", 100*units.Gbps, units.Microsecond, dst, 2)
	var b Boundary
	b.Push(BoundaryMsg{Key: eventsim.Key{At: 10}, Link: l, Ctrl: PFCFrame{Pause: true}})
	b.Push(BoundaryMsg{Key: eventsim.Key{At: 20}, Link: l, Ctrl: PFCFrame{Pause: false}})
	b.DrainInto(s)
	s.Run()
	if len(dst.controls) != 2 {
		t.Fatalf("delivered %d control frames, want 2", len(dst.controls))
	}
	if f := dst.controls[0].(PFCFrame); !f.Pause {
		t.Fatal("first frame should be the pause")
	}
	if dst.ctrlPort[0] != 2 {
		t.Fatalf("control delivered to port %d, want 2", dst.ctrlPort[0])
	}
}

func TestLinkBoundaryRedirect(t *testing.T) {
	// A link with a boundary set must queue instead of scheduling locally,
	// stamping the delivery with the instant it would have arrived.
	s := eventsim.New()
	dst := &fakeDevice{id: 1, sched: s}
	l := NewLink(s, "x->y", 100*units.Gbps, units.Microsecond, dst, 0)
	var b Boundary
	l.SetBoundary(&b)
	l.Transmit(&packet.Packet{Kind: packet.Data, Size: 1000}, nil)
	l.SendControl(PFCFrame{Pause: true})
	s.Run() // serialization-done event only; no local delivery
	if len(dst.packets) != 0 || len(dst.controls) != 0 {
		t.Fatal("boundary link delivered locally")
	}
	if len(b.msgs) != 2 {
		t.Fatalf("boundary holds %d messages, want 2", len(b.msgs))
	}
	// 80ns serialization + 1us propagation for the packet, 1us for the frame.
	b.DrainInto(s)
	s.Run()
	if len(dst.packets) != 1 || len(dst.controls) != 1 {
		t.Fatalf("drain delivered %d packets / %d frames", len(dst.packets), len(dst.controls))
	}
	if dst.times[0] != units.Microsecond {
		t.Fatalf("control frame arrived at %v, want 1us", dst.times[0])
	}
	if dst.times[1] != 80*units.Nanosecond+units.Microsecond {
		t.Fatalf("packet arrived at %v, want 1.08us", dst.times[1])
	}
}

// TestRecordLayouts pins the size of a boundary delivery: a Key (instant,
// generation and owner, sequence number), the link, and the packet or the
// control frame. Every cross-shard hop copies one into the queue and out.
func TestRecordLayouts(t *testing.T) {
	if n := unsafe.Sizeof(BoundaryMsg{}); n > 56 {
		t.Errorf("BoundaryMsg is %d bytes, want at most 56", n)
	}
}
