package netsim

import (
	"testing"

	"bfc/internal/bloom"
	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/units"
)

// fakeDevice records everything it receives.
type fakeDevice struct {
	id       packet.NodeID
	packets  []*packet.Packet
	ports    []int
	controls []ControlFrame
	ctrlPort []int
	times    []units.Time
	sched    *eventsim.Scheduler
}

func (d *fakeDevice) ID() packet.NodeID            { return d.id }
func (d *fakeDevice) AttachLink(port int, l *Link) {}
func (d *fakeDevice) ReceivePacket(ingress int, p *packet.Packet) {
	d.packets = append(d.packets, p)
	d.ports = append(d.ports, ingress)
	d.times = append(d.times, d.sched.Now())
}
func (d *fakeDevice) ReceiveControl(port int, f ControlFrame) {
	d.controls = append(d.controls, f)
	d.ctrlPort = append(d.ctrlPort, port)
	d.times = append(d.times, d.sched.Now())
}

// doneFunc is a Sender that calls itself.
type doneFunc func()

func (f doneFunc) TxDone() { f() }

func TestLinkTransmitTiming(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	// 100 Gbps, 1 us delay: a 1000-byte packet serializes in 80 ns.
	l := NewLink(s, "a->b", 100*units.Gbps, units.Microsecond, dst, 3)
	p := &packet.Packet{Kind: packet.Data, Size: 1000}
	var doneAt units.Time
	l.Transmit(p, doneFunc(func() { doneAt = s.Now() }))
	if !l.Busy() {
		t.Fatal("link should be busy during serialization")
	}
	s.Run()
	if doneAt != 80*units.Nanosecond {
		t.Fatalf("serialization done at %v, want 80ns", doneAt)
	}
	if len(dst.packets) != 1 || dst.ports[0] != 3 {
		t.Fatalf("packet not delivered to port 3")
	}
	if dst.times[0] != 80*units.Nanosecond+units.Microsecond {
		t.Fatalf("packet arrived at %v, want 1.08us", dst.times[0])
	}
	if l.Busy() {
		t.Fatal("link should be idle after serialization")
	}
}

func TestLinkBackToBackTransmissions(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	l := NewLink(s, "l", 100*units.Gbps, units.Microsecond, dst, 0)
	sent := 0
	var send func()
	send = func() {
		if sent == 3 {
			return
		}
		sent++
		l.Transmit(&packet.Packet{Kind: packet.Data, Size: 1000, Seq: sent}, doneFunc(send))
	}
	send()
	s.Run()
	if len(dst.packets) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(dst.packets))
	}
	// Arrivals at 1.08, 1.16, 1.24 us preserve order and spacing.
	for i := 1; i < 3; i++ {
		gap := dst.times[i] - dst.times[i-1]
		if gap != 80*units.Nanosecond {
			t.Fatalf("arrival gap %v, want 80ns", gap)
		}
		if dst.packets[i].Seq < dst.packets[i-1].Seq {
			t.Fatal("packets reordered on a link")
		}
	}
}

func TestTransmitWhileBusyPanics(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	l := NewLink(s, "l", units.Gbps, 0, dst, 0)
	l.Transmit(&packet.Packet{Size: 100}, nil)
	assertPanics(t, func() { l.Transmit(&packet.Packet{Size: 100}, nil) })
	assertPanics(t, func() {
		l2 := NewLink(s, "l2", units.Gbps, 0, dst, 0)
		l2.Transmit(nil, nil)
	})
}

func TestLinkValidation(t *testing.T) {
	s := eventsim.New()
	d := &fakeDevice{sched: s}
	assertPanics(t, func() { NewLink(nil, "x", units.Gbps, 0, d, 0) })
	assertPanics(t, func() { NewLink(s, "x", 0, 0, d, 0) })
	assertPanics(t, func() { NewLink(s, "x", units.Gbps, -1, d, 0) })
	assertPanics(t, func() { NewLink(s, "x", units.Gbps, 0, nil, 0) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestSendControl(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	l := NewLink(s, "l", 100*units.Gbps, 2*units.Microsecond, dst, 5)
	l.SendControl(PFCFrame{Pause: true})
	pauses := bloom.NewCounting(bloom.DefaultParams())
	pauses.Add(7)
	filter := pauses.Snapshot(nil)
	l.SendControl(BFCPauseFrame{Filter: filter})
	s.Run()
	if len(dst.controls) != 2 {
		t.Fatalf("received %d control frames, want 2", len(dst.controls))
	}
	if dst.ctrlPort[0] != 5 {
		t.Fatal("control frame delivered to wrong port")
	}
	if pfc, ok := dst.controls[0].(PFCFrame); !ok || !pfc.Pause {
		t.Fatal("PFC frame not delivered intact")
	}
	if bf, ok := dst.controls[1].(BFCPauseFrame); !ok || !bf.Filter.Contains(7) {
		t.Fatal("BFC frame not delivered intact")
	}
	if dst.times[0] != 2*units.Microsecond {
		t.Fatalf("control arrived at %v, want 2us (propagation only)", dst.times[0])
	}
}

// TestLostFilterGoesBack: a BFC frame counts as in flight from SendControl to
// its delivery, and a frame lost on the down link puts its filter back in the
// link's pool instead of delivering it.
func TestLostFilterGoesBack(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	l := NewLink(s, "l", 100*units.Gbps, 2*units.Microsecond, dst, 0)
	l.Filters = bloom.NewPool()
	pauses := bloom.NewCounting(bloom.DefaultParams())
	pauses.Add(7)
	l.SendControl(BFCPauseFrame{Filter: pauses.Snapshot(nil)})
	l.SendControl(BFCPauseFrame{}) // nothing paused: no filter travels
	if l.FiltersInFlight() != 1 {
		t.Fatalf("%d filters in flight, want 1", l.FiltersInFlight())
	}
	l.SetDown(true)
	s.Run()
	if len(dst.controls) != 0 || l.FiltersInFlight() != 0 || l.Filters.Free() != 1 {
		t.Fatalf("down link delivered %d frames, %d filters in flight, %d back in the pool; want 0, 0, 1",
			len(dst.controls), l.FiltersInFlight(), l.Filters.Free())
	}
}

// TestLossOnTheStaticPath: a packet and a BFC pause frame in flight when the
// link goes down, on a local link and on a cross-shard one, find their link at
// the delivery instant — the packet in its Wire, the frame in its record — and
// are lost there: the packet to OnStranded, the filter back to Filters. The
// frame's record goes back to the link's Frames, and no packet holds a link
// once it has landed.
func TestLossOnTheStaticPath(t *testing.T) {
	for _, cross := range []bool{false, true} {
		s := eventsim.New()
		dst := &fakeDevice{id: 2, sched: s}
		l := NewLink(s, "l", 100*units.Gbps, units.Microsecond, dst, 0)
		l.Filters = bloom.NewPool()
		var b Boundary
		if cross {
			l.SetBoundary(&b)
		}
		var stranded []*packet.Packet
		l.OnStranded = func(p *packet.Packet) { stranded = append(stranded, p) }
		p := &packet.Packet{Kind: packet.Data, Size: 1000}
		l.Transmit(p, nil)
		pauses := bloom.NewCounting(bloom.DefaultParams())
		pauses.Add(7)
		l.SendControl(BFCPauseFrame{Filter: pauses.Snapshot(nil)})
		if cross {
			if p.Wire != nil || len(l.Frames.free) != 0 || len(l.Frames.page) != 0 {
				t.Fatalf("cross=%v: the link gave its packet or frame a ride before the drain", cross)
			}
			b.DrainInto(s)
		}
		if (*Link)(p.Wire) != l {
			t.Fatalf("cross=%v: the packet in flight does not carry its link", cross)
		}
		if l.FiltersInFlight() != 1 {
			t.Fatalf("cross=%v: %d filters in flight, want 1", cross, l.FiltersInFlight())
		}
		l.SetDown(true)
		s.Run()
		if len(dst.packets) != 0 || len(dst.controls) != 0 {
			t.Fatalf("cross=%v: down link delivered %d packets and %d frames", cross, len(dst.packets), len(dst.controls))
		}
		if len(stranded) != 1 || stranded[0] != p || p.Wire != nil {
			t.Fatalf("cross=%v: stranded %d packets (the sent one: %v), holding a link: %v",
				cross, len(stranded), len(stranded) == 1 && stranded[0] == p, p.Wire != nil)
		}
		if l.FiltersInFlight() != 0 || l.Filters.Free() != 1 {
			t.Fatalf("cross=%v: %d filters in flight, %d back in the pool; want 0, 1", cross, l.FiltersInFlight(), l.Filters.Free())
		}
		if len(l.Frames.free) != 1 || l.Frames.free[0].link != nil {
			t.Fatalf("cross=%v: %d frame records back on the free list, want 1 holding nothing", cross, len(l.Frames.free))
		}
	}
}

func TestMarkPausedAccounting(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	l := NewLink(s, "l", units.Gbps, 0, dst, 0)
	s.Schedule(10*units.Microsecond, func() { l.MarkPaused(true) })
	s.Schedule(15*units.Microsecond, func() { l.MarkPaused(true) }) // idempotent
	s.Schedule(30*units.Microsecond, func() { l.MarkPaused(false) })
	s.Schedule(35*units.Microsecond, func() { l.MarkPaused(false) }) // idempotent
	s.Run()
	if got := l.PausedTime(); got != 20*units.Microsecond {
		t.Fatalf("paused time = %v, want 20us", got)
	}
	// A link paused and never resumed accrues time up to "now".
	l2 := NewLink(s, "l2", units.Gbps, 0, dst, 0)
	l2.MarkPaused(true)
	s.Schedule(s.Now()+5*units.Microsecond, func() {})
	s.Run()
	if got := l2.PausedTime(); got != 5*units.Microsecond {
		t.Fatalf("open-ended paused time = %v, want 5us", got)
	}
}
