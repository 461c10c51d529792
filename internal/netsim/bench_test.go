package netsim

import (
	"testing"

	"bfc/internal/eventsim"
	"bfc/internal/packet"
	"bfc/internal/units"
)

// The link benchmarks below are developer tools like the eventsim ones (speed
// is bench/'s netsim.link_hop_ns): they measure the per-packet cost of the
// send/receive hot path — pool Get, Transmit (serialization event + delivery
// event), receive, pool Put. That the path is allocation-free in steady state
// is a test: each benchmark is one loop(n), and TestLinkSteadyStateAllocFree
// runs the same loops under testing.AllocsPerRun.

// benchSink terminally consumes packets and recycles them, as a receiving
// NIC does.
type benchSink struct {
	pool     *packet.Pool
	received int
}

func (d *benchSink) ID() packet.NodeID                { return 1 }
func (d *benchSink) AttachLink(int, *Link)            {}
func (d *benchSink) ReceiveControl(int, ControlFrame) {}
func (d *benchSink) ReceivePacket(in int, p *packet.Packet) {
	d.received++
	d.pool.Put(p)
}

// benchLink is a 100 Gbps link into a benchSink; send takes a packet from the
// pool, fills it in as 1000 bytes of data and transmits it.
func benchLink() (sched *eventsim.Scheduler, sink *benchSink, send func(from Sender)) {
	sched = eventsim.New()
	pool := packet.NewPool()
	sink = &benchSink{pool: pool}
	l := NewLink(sched, "bench", 100*units.Gbps, units.Microsecond, sink, 0)
	flow := &packet.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000}
	send = func(from Sender) {
		p := pool.Get()
		p.Kind = packet.Data
		p.Flow = flow
		p.Size = 1000 + packet.DataHeaderSize
		p.Payload = 1000
		l.Transmit(p, from)
	}
	return sched, sink, send
}

// linkPacketPathLoop is one full packet lifetime over a link with pooling:
// allocate from the pool, serialize, propagate, deliver, recycle.
func linkPacketPathLoop(tb testing.TB) func(n int) {
	sched, sink, send := benchLink()
	return func(n int) {
		sink.received = 0
		for i := 0; i < n; i++ {
			send(nil)
			sched.Run()
		}
		if sink.received != n {
			tb.Fatalf("delivered %d of %d packets", sink.received, n)
		}
	}
}

func BenchmarkLinkPacketPath(b *testing.B) { runLoop(b, linkPacketPathLoop(b)) }

// linkBackToBackLoop is a sender keeping the link saturated: the next packet
// is handed over from the serialization-done callback, so the scheduler
// interleaves serialization and delivery events as a loaded NIC does.
func linkBackToBackLoop(tb testing.TB) func(n int) {
	sched, sink, send := benchLink()
	left := 0
	var next func()
	next = func() {
		if left > 0 {
			left--
			send(doneFunc(next))
		}
	}
	return func(n int) {
		sink.received, left = 0, n
		next()
		sched.Run()
		if sink.received != n {
			tb.Fatalf("delivered %d of %d packets", sink.received, n)
		}
	}
}

func BenchmarkLinkBackToBack(b *testing.B) { runLoop(b, linkBackToBackLoop(b)) }

// runLoop times loop(b.N).
func runLoop(b *testing.B, loop func(n int)) {
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}

// TestLinkSteadyStateAllocFree: one allocation anywhere in 1024 packets fails
// (AllocsPerRun warms the pool and the scheduler's arenas with one call of
// its own first).
func TestLinkSteadyStateAllocFree(t *testing.T) {
	for name, loop := range map[string]func(n int){
		"LinkPacketPath": linkPacketPathLoop(t),
		"LinkBackToBack": linkBackToBackLoop(t),
	} {
		if allocs := testing.AllocsPerRun(1, func() { loop(1024) }); allocs != 0 {
			t.Errorf("%s: %v allocations in 1024 steady-state packets, want 0", name, allocs)
		}
	}
}

// TestLinkInitAllocFree: setting up a link in a slab allocates nothing. Its
// events call package-level functions: serialization-complete with the link
// as argument, a delivery with the packet, which carries the link, or with a
// control frame's record from the receiving side's Frames.
func TestLinkInitAllocFree(t *testing.T) {
	s := eventsim.New()
	dst := &fakeDevice{id: 2, sched: s}
	links := make([]Link, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		links[0].Init(s, "", 100*units.Gbps, units.Microsecond, dst, 0)
	}); allocs != 0 {
		t.Fatalf("Init allocated %v objects, want 0", allocs)
	}
}
