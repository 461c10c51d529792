package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"bfc/internal/bloom"
	"bfc/internal/packet"
	"bfc/internal/units"
)

// fakeView is a controllable PortView for engine unit tests.
type fakeView struct {
	active map[int]int
	paused map[[2]int]bool
	rate   units.Rate
}

func newFakeView(rate units.Rate) *fakeView {
	return &fakeView{active: map[int]int{}, paused: map[[2]int]bool{}, rate: rate}
}

func (v *fakeView) ActiveQueues(egress int) int { return v.active[egress] }
func (v *fakeView) QueuePausedByDownstream(egress, queue int) bool {
	return v.paused[[2]int{egress, queue}]
}
func (v *fakeView) LinkRate(egress int) units.Rate { return v.rate }

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.QueuesPerPort = 8
	return cfg
}

func newTestEngine(t *testing.T, cfg Config) (*Engine, *fakeView) {
	t.Helper()
	view := newFakeView(100 * units.Gbps)
	return NewEngine(cfg, 4, view), view
}

func mkFlow(id int, src, dst int32) *packet.Flow {
	return &packet.Flow{
		ID:      packet.FlowID(id),
		Src:     packet.NodeID(src),
		Dst:     packet.NodeID(dst),
		SrcPort: uint16(10000 + id),
		DstPort: 4791,
		Size:    1 << 20,
	}
}

func dataPkt(f *packet.Flow, seq int, size units.Bytes, first bool) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Flow: f, Seq: seq, Size: size, First: first}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.QueuesPerPort = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero queues")
	}
	bad = DefaultConfig()
	bad.NumVFIDs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero VFIDs")
	}
	bad = DefaultConfig()
	bad.Bloom.SizeBytes = bloom.MaxSizeBytes + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for a bloom filter larger than a pause frame holds")
	}
	bad = DefaultConfig()
	bad.HRTT = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero HRTT")
	}
	assertPanics(t, func() { NewEngine(bad, 4, newFakeView(units.Gbps)) })
	assertPanics(t, func() { NewEngine(DefaultConfig(), 0, newFakeView(units.Gbps)) })
	assertPanics(t, func() { NewEngine(DefaultConfig(), 4, nil) })
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

func TestPauseThreshold(t *testing.T) {
	cfg := testConfig()
	e, view := newTestEngine(t, cfg)
	// (HRTT + Tau) = 3 us at 100 Gbps = 37500 bytes with Nactive = 1.
	view.active[1] = 1
	if th := e.PauseThreshold(1, 0); th != 37500 {
		t.Fatalf("threshold = %d, want 37500", th)
	}
	// With 3 active queues the per-queue share drops to a third.
	view.active[1] = 3
	if th := e.PauseThreshold(1, 0); th != 12500 {
		t.Fatalf("threshold = %d, want 12500", th)
	}
	// Zero active queues behaves as one.
	view.active[1] = 0
	if th := e.PauseThreshold(1, 0); th != 37500 {
		t.Fatalf("threshold with no active queues = %d, want 37500", th)
	}
	// A queue paused by the downstream is counted back in (§3.4).
	view.active[1] = 2
	view.paused[[2]int{1, 5}] = true
	full := e.PauseThreshold(1, 0)
	pausedQ := e.PauseThreshold(1, 5)
	if pausedQ >= full {
		t.Fatalf("paused queue threshold %d should be below unpaused %d", pausedQ, full)
	}
}

func TestFirstPacketGoesHighPriority(t *testing.T) {
	e, _ := newTestEngine(t, testConfig())
	f := mkFlow(1, 10, 20)
	pl := e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, true))
	if !pl.HighPriority || pl.Overflow {
		t.Fatalf("first packet placement = %+v, want high priority", pl)
	}
	// Second packet goes to a physical queue.
	pl2 := e.OnArrival(0, 0, 1, dataPkt(f, 1, 1000, false))
	if pl2.HighPriority || pl2.Overflow || pl2.Queue < 0 {
		t.Fatalf("second packet placement = %+v, want physical queue", pl2)
	}
	// With the feature disabled the first packet uses a physical queue.
	cfg := testConfig()
	cfg.UseHighPriorityQueue = false
	e2, _ := newTestEngine(t, cfg)
	pl3 := e2.OnArrival(0, 0, 1, dataPkt(mkFlow(2, 10, 20), 0, 1000, true))
	if pl3.HighPriority {
		t.Fatal("high-priority queue used despite being disabled")
	}
}

func TestDynamicAssignmentAvoidsCollisions(t *testing.T) {
	// With 8 queues and 8 concurrent flows, dynamic assignment gives each
	// flow its own queue; static hashing would almost surely collide.
	e, _ := newTestEngine(t, testConfig())
	queues := map[int]bool{}
	for i := 0; i < 8; i++ {
		f := mkFlow(i+1, int32(i), 99)
		pl := e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, false))
		if pl.HighPriority || pl.Overflow || !pl.Assigned || pl.Collided {
			t.Fatalf("unexpected placement %+v", pl)
		}
		if queues[pl.Queue] {
			t.Fatalf("dynamic assignment reused queue %d while empty queues remained", pl.Queue)
		}
		queues[pl.Queue] = true
	}
	if e.Stats().CollidedAssignments != 0 {
		t.Fatal("collisions counted despite free queues")
	}
	// A ninth flow must collide (all queues occupied).
	pl := e.OnArrival(0, 0, 1, dataPkt(mkFlow(9, 50, 99), 0, 1000, false))
	if pl.Queue < 0 || pl.Queue >= 8 || !pl.Assigned || !pl.Collided {
		t.Fatalf("ninth flow placement = %+v, want a collided assignment", pl)
	}
	if e.Stats().CollidedAssignments != 1 {
		t.Fatalf("collisions = %d, want 1", e.Stats().CollidedAssignments)
	}
}

func TestStaticAssignmentCollides(t *testing.T) {
	cfg := testConfig()
	cfg.DynamicAssignment = false
	cfg.UseHighPriorityQueue = false
	e, _ := newTestEngine(t, cfg)
	// With 64 flows over 8 static queues, collisions are guaranteed. Each
	// placement reports its own assignment, so they sum to the counters.
	var assigned, collided uint64
	for i := 0; i < 64; i++ {
		f := mkFlow(i+1, int32(i), 99)
		pl := e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, false))
		if pl.Assigned {
			assigned++
		}
		if pl.Collided {
			collided++
		}
	}
	if e.Stats().CollidedAssignments == 0 {
		t.Fatal("static hashing should produce collisions with 64 flows on 8 queues")
	}
	if st := e.Stats(); assigned != st.Assignments || collided != st.CollidedAssignments {
		t.Fatalf("placements report %d assignments, %d collided; stats count %d, %d",
			assigned, collided, st.Assignments, st.CollidedAssignments)
	}
}

func TestPacketsOfAFlowStayInOneQueue(t *testing.T) {
	e, _ := newTestEngine(t, testConfig())
	f := mkFlow(1, 1, 2)
	first := e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, false))
	if !first.Assigned {
		t.Fatalf("first packet placed %+v, want an assignment", first)
	}
	for seq := 1; seq < 20; seq++ {
		pl := e.OnArrival(0, 0, 1, dataPkt(f, seq, 1000, false))
		if pl.Queue != first.Queue || pl.Assigned {
			t.Fatalf("packet %d placed %+v, flow lives in %d", seq, pl, first.Queue)
		}
	}
}

func TestPauseAboveThresholdAndFrameGeneration(t *testing.T) {
	e, view := newTestEngine(t, testConfig())
	view.active[1] = 1 // threshold 37500 bytes
	f := mkFlow(1, 1, 2)
	var pl Placement
	// 37 packets of 1000B stay below the threshold.
	for seq := 0; seq < 37; seq++ {
		pl = e.OnArrival(0, 0, 1, dataPkt(f, seq, 1000, false))
	}
	if e.FlowPaused(f, 0, 1) {
		t.Fatal("flow paused below threshold")
	}
	// Crossing the threshold pauses the flow.
	for seq := 37; seq < 39; seq++ {
		pl = e.OnArrival(0, 0, 1, dataPkt(f, seq, 1000, false))
	}
	_ = pl
	if !e.FlowPaused(f, 0, 1) {
		t.Fatal("flow not paused above threshold")
	}
	if e.Stats().Pauses != 1 {
		t.Fatalf("pauses = %d, want 1", e.Stats().Pauses)
	}
	// The next Tick must emit a pause frame for ingress 0 containing the VFID.
	pool := bloom.NewPool()
	frames := e.Tick(0, pool)
	if len(frames) != 1 || frames[0].Ingress != 0 {
		t.Fatalf("frames = %+v, want one frame for ingress 0", frames)
	}
	if !frames[0].Filter.Contains(e.VFID(f)) {
		t.Fatal("pause frame does not contain the paused VFID")
	}
	first := frames[0].Filter
	// Ticks with no change and a non-empty filter keep being sent (periodic
	// refresh), but an all-empty engine sends nothing. Each frame owns a
	// record of its own, so the refresh of an unchanged pause set carries an
	// equal copy in another record while the first frame still holds its own;
	// once that one is given back, the next frame reuses it.
	frames = e.Tick(1, pool)
	if len(frames) != 1 {
		t.Fatalf("non-empty filter should be refreshed every tick, got %d frames", len(frames))
	}
	second := frames[0].Filter
	if second == first || second.String() != first.String() || !second.Contains(e.VFID(f)) {
		t.Fatalf("refresh frame carries %p %v, want a record other than %p holding %v", second, second, first, first)
	}
	pool.Put(first)
	if frames = e.Tick(2, pool); frames[0].Filter != first || pool.Carved() != 2 {
		t.Fatalf("after one record came back the next frame carries %p from %d carved, want %p from 2",
			frames[0].Filter, pool.Carved(), first)
	}
}

func TestNoFramesWhenNothingPaused(t *testing.T) {
	e, _ := newTestEngine(t, testConfig())
	f := mkFlow(1, 1, 2)
	e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, false))
	if frames := e.Tick(0, nil); len(frames) != 0 {
		t.Fatalf("expected no pause frames, got %d", len(frames))
	}
}

func TestResumeThrottling(t *testing.T) {
	// Fill a queue beyond the threshold with two flows, then drain it and
	// verify resumes happen at most one per tick per queue (§3.5), and that
	// an empty-again filter is sent exactly once.
	cfg := testConfig()
	cfg.UseHighPriorityQueue = false
	e, view := newTestEngine(t, cfg)
	view.active[1] = 1
	fa, fb := mkFlow(1, 1, 9), mkFlow(2, 2, 9)
	// Interleave arrivals so both flows land in the same... actually dynamic
	// assignment gives them separate queues; to share a queue, occupy all 8
	// queues first.
	var occupiers []*packet.Flow
	for i := 0; i < 8; i++ {
		f := mkFlow(100+i, int32(30+i), 9)
		occupiers = append(occupiers, f)
		e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, false))
	}
	plA := e.OnArrival(0, 0, 1, dataPkt(fa, 0, 1000, false))
	plB := e.OnArrival(0, 1, 1, dataPkt(fb, 0, 1000, false))
	_ = plB
	// Push both flows' queues above threshold.
	for seq := 1; seq < 80; seq++ {
		e.OnArrival(0, 0, 1, dataPkt(fa, seq, 1000, false))
		e.OnArrival(0, 1, 1, dataPkt(fb, seq, 1000, false))
	}
	if !e.FlowPaused(fa, 0, 1) || !e.FlowPaused(fb, 1, 1) {
		t.Fatal("both flows should be paused")
	}
	// Drain flow A's packets: each departure re-evaluates the pause.
	for seq := 0; seq < 80; seq++ {
		e.OnDeparture(0, 0, 1, plA, dataPkt(fa, seq, 1000, false))
	}
	// A's entry is gone; its resume is pending but not yet applied.
	if got := e.Stats().Resumes; got != 0 {
		t.Fatalf("resumes before tick = %d, want 0", got)
	}
	before := e.Stats().Resumes
	e.Tick(0, nil)
	if e.Stats().Resumes != before+1 {
		t.Fatalf("resumes after one tick = %d, want %d", e.Stats().Resumes, before+1)
	}
	_ = occupiers
}

// TestTickResumesEachQueuesEarliest: a port keeps one resume list in the
// order resumes were queued, and a Tick resumes each physical queue's
// earliest resumePerInterval (one) items and keeps the rest in order — what
// one list per queue would do.
func TestTickResumesEachQueuesEarliest(t *testing.T) {
	e, _ := newTestEngine(t, testConfig())
	es := &e.egress[1]
	for i, q := range []int32{0, 0, 1, 0, 1, 2} {
		v := packet.VFID(100 + i)
		e.ingress[0].counting.Add(v)
		e.queueResume(es, resumeItem{vfid: v, queue: q, ingress: 0})
	}
	for tick, left := range [][]packet.VFID{{101, 103, 104}, {103}, {}} {
		e.Tick(0, nil)
		var got []packet.VFID
		for _, item := range es.toResume {
			got = append(got, item.vfid)
		}
		if !slices.Equal(got, left) || e.pendingResumes != len(left) || e.ingress[0].counting.Members() != len(left) {
			t.Fatalf("after tick %d: list %v (%d pending, %d paused), want %v", tick+1, got, e.pendingResumes, e.ingress[0].counting.Members(), left)
		}
		if err := e.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueueStateSize: the engine keeps 16 B per physical queue; which table
// entries a queue holds is found by walking the table, not stored.
func TestQueueStateSize(t *testing.T) {
	if n := unsafe.Sizeof(queueState{}); n != 16 {
		t.Fatalf("queueState is %d bytes, want 16: its bytes and an int32 flow count", n)
	}
}

func TestResumeAllAblation(t *testing.T) {
	cfg := testConfig()
	cfg.ResumeAll = true
	cfg.UseHighPriorityQueue = false
	e, view := newTestEngine(t, cfg)
	view.active[1] = 1
	f := mkFlow(1, 1, 2)
	var pl Placement
	for seq := 0; seq < 50; seq++ {
		pl = e.OnArrival(0, 0, 1, dataPkt(f, seq, 1000, false))
	}
	if !e.FlowPaused(f, 0, 1) {
		t.Fatal("flow should be paused")
	}
	// Drain until below threshold: with ResumeAll the flow resumes
	// immediately at the departure that crosses the threshold, with no Tick.
	for seq := 0; seq < 20; seq++ {
		e.OnDeparture(0, 0, 1, pl, dataPkt(f, seq, 1000, false))
	}
	if e.FlowPaused(f, 0, 1) {
		t.Fatal("ResumeAll should have resumed the flow without a tick")
	}
	if e.Stats().Resumes == 0 {
		t.Fatal("resume not counted")
	}
}

func TestDepartureReclaimsQueueAndState(t *testing.T) {
	e, _ := newTestEngine(t, testConfig())
	f := mkFlow(1, 1, 2)
	pl := e.OnArrival(0, 0, 1, dataPkt(f, 0, 1000, false))
	if e.ActiveFlows() != 1 {
		t.Fatal("flow not active after arrival")
	}
	e.OnDeparture(0, 0, 1, pl, dataPkt(f, 0, 1000, false))
	if e.ActiveFlows() != 0 {
		t.Fatal("flow state not reclaimed after last departure")
	}
	// The physical queue is free again: a new flow gets a queue without a
	// collision.
	pl2 := e.OnArrival(0, 0, 1, dataPkt(mkFlow(2, 3, 4), 0, 1000, false))
	if pl2.Queue < 0 || e.Stats().CollidedAssignments != 0 {
		t.Fatal("queue not reclaimed")
	}
}

func TestVFIDCollisionDetection(t *testing.T) {
	cfg := testConfig()
	cfg.NumVFIDs = 1 // force every flow onto the same VFID
	cfg.UseHighPriorityQueue = false
	e, _ := newTestEngine(t, cfg)
	fa, fb := mkFlow(1, 1, 2), mkFlow(2, 3, 4)
	e.OnArrival(0, 0, 1, dataPkt(fa, 0, 1000, false))
	e.OnArrival(0, 0, 1, dataPkt(fb, 0, 1000, false))
	if e.Stats().VFIDCollisions != 1 {
		t.Fatalf("VFID collisions = %d, want 1", e.Stats().VFIDCollisions)
	}
	// Both flows share one entry; the engine still accounts packets sanely.
	if e.ActiveFlows() != 1 {
		t.Fatalf("aliased flows should share one entry, got %d", e.ActiveFlows())
	}
}

func TestTableOverflowFallsBackToOverflowQueue(t *testing.T) {
	cfg := testConfig()
	cfg.NumVFIDs = 1
	cfg.UseHighPriorityQueue = false
	e := NewEngine(cfg, 12, newFakeView(100*units.Gbps))
	// Distinct (ingress, egress) pairs with the same VFID: the §3.8 bucket
	// holds 4, the overflow cache 100, and the 105th has nowhere to go.
	const held = 4 + 100
	var pairs [][2]int
	for in := range 12 {
		for out := range 12 {
			if in != out {
				pairs = append(pairs, [2]int{in, out})
			}
		}
	}
	for i, p := range pairs[:held] {
		if pl := e.OnArrival(0, p[0], p[1], dataPkt(mkFlow(i+1, int32(p[0]), int32(p[1])), 0, 1000, false)); pl.Overflow {
			t.Fatalf("flow %d of %d went to the overflow queue", i+1, held)
		}
	}
	last := pairs[held]
	pkt := dataPkt(mkFlow(held+1, int32(last[0]), int32(last[1])), 0, 1000, false)
	pl := e.OnArrival(0, last[0], last[1], pkt)
	if !pl.Overflow {
		t.Fatalf("placement = %+v, want overflow", pl)
	}
	if e.Stats().TableOverflowPackets != 1 || e.ActiveFlows() != held {
		t.Fatalf("overflow packets %d, active flows %d; want 1 and %d", e.Stats().TableOverflowPackets, e.ActiveFlows(), held)
	}
	// Departures of overflow packets are a no-op.
	e.OnDeparture(0, last[0], last[1], pl, pkt)
}

func TestDepartureForUnknownFlowPanics(t *testing.T) {
	e, _ := newTestEngine(t, testConfig())
	assertPanics(t, func() {
		e.OnDeparture(0, 0, 1, Placement{Queue: 0}, dataPkt(mkFlow(1, 1, 2), 0, 1000, false))
	})
	assertPanics(t, func() {
		e.OnArrival(0, 0, 99, dataPkt(mkFlow(1, 1, 2), 0, 1000, false))
	})
	assertPanics(t, func() {
		e.OnArrival(0, 0, 1, &packet.Packet{Kind: packet.Ack, Flow: mkFlow(1, 1, 2), Size: 64})
	})
}

func TestUpstreamState(t *testing.T) {
	u := NewUpstreamState(16384)
	f := mkFlow(1, 1, 2)
	p := dataPkt(f, 0, 1000, false)
	if u.PacketPaused(p) {
		t.Fatal("no filter installed: nothing should be paused")
	}
	pauses := bloom.NewCounting(bloom.DefaultParams())
	pauses.Add(f.VFIDOf(16384))
	filter := pauses.Snapshot(nil)
	if old := u.Update(filter); old != nil {
		t.Fatalf("the first filter displaced %v", old)
	}
	if !u.PacketPaused(p) || !u.Holds() {
		t.Fatal("packet of a paused flow should match")
	}
	other := dataPkt(mkFlow(2, 7, 8), 0, 1000, false)
	if u.PacketPaused(other) {
		t.Fatal("unrelated flow should not match (with overwhelming probability)")
	}
	// An empty pause set, which travels as nil, resumes everything and hands
	// the installed filter back.
	if old := u.Update(bloom.NewCounting(bloom.DefaultParams()).Snapshot(nil)); old != filter {
		t.Fatalf("an empty update displaced %p, want the installed %p", old, filter)
	}
	if u.PacketPaused(p) || u.Holds() {
		t.Fatal("empty filter should pause nothing")
	}
	// Reset hands back what is installed, and the installed record is the
	// state's until then: putting it back earlier panics.
	pool := bloom.NewPool()
	u.Update(filter)
	assertPanics(t, func() { pool.Put(filter) })
	if old := u.Reset(); old != filter || u.Holds() {
		t.Fatalf("Reset displaced %p, want %p", old, filter)
	}
	pool.Put(filter)
	assertPanics(t, func() { NewUpstreamState(0) })
}

// Property: for any random interleaving of arrivals and departures, the
// engine's per-queue byte accounting matches a reference model, accounting
// never goes negative (the engine panics if it does), and all state is
// reclaimed when all packets have departed.
func TestEngineAccountingProperty(t *testing.T) {
	prop := func(seed int64, nFlows, nPkts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.Salt = uint64(seed)
		view := newFakeView(100 * units.Gbps)
		view.active[1] = 1
		e := NewEngine(cfg, 4, view)

		flows := int(nFlows%6) + 1
		pktsPerFlow := int(nPkts%40) + 1
		type queued struct {
			pl  Placement
			pkt *packet.Packet
			in  int
		}
		var pending []queued
		for fi := 0; fi < flows; fi++ {
			f := mkFlow(fi+1, int32(fi), 99)
			in := fi % 3
			for s := 0; s < pktsPerFlow; s++ {
				p := dataPkt(f, s, units.Bytes(rng.Intn(1000)+1), s == 0)
				pl := e.OnArrival(0, in, 3, p)
				pending = append(pending, queued{pl: pl, pkt: p, in: in})
				// Randomly drain some packets (FIFO per flow is preserved
				// because we drain from the front).
				for len(pending) > 0 && rng.Intn(3) == 0 {
					q := pending[0]
					pending = pending[1:]
					e.OnDeparture(0, q.in, 3, q.pl, q.pkt)
				}
			}
			if rng.Intn(2) == 0 {
				e.Tick(0, nil)
			}
			if err := e.Check(); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, q := range pending {
			e.OnDeparture(0, q.in, 3, q.pl, q.pkt)
		}
		// Drain resume lists.
		for i := 0; i < 200; i++ {
			e.Tick(0, nil)
		}
		if e.ActiveFlows() != 0 {
			return false
		}
		for q := 0; q < cfg.QueuesPerPort; q++ {
			if e.QueueBytes(3, q) != 0 {
				return false
			}
		}
		// After everything drained and ticked, no VFID stays paused: a final
		// tick emits at most one trailing "now empty" frame per ingress.
		if frames := e.Tick(0, nil); len(frames) != 0 {
			return false
		}
		// No pause state is left behind: every counting filter is empty and
		// its wire snapshot the nil (empty) filter, and no resume is still
		// pending.
		for _, is := range e.ingress {
			if is.counting.Members() != 0 || is.counting.Snapshot(nil) != nil {
				return false
			}
		}
		return e.pendingResumes == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: pause threshold is inversely proportional to the number of active
// queues and proportional to the link rate.
func TestPauseThresholdProperty(t *testing.T) {
	prop := func(nActive uint8, rateGbps uint8) bool {
		view := newFakeView(units.Rate(int64(rateGbps%100)+1) * units.Gbps)
		view.active[0] = int(nActive%64) + 1
		e := NewEngine(testConfig(), 2, view)
		th := e.PauseThreshold(0, 0)
		view.active[0] *= 2
		th2 := e.PauseThreshold(0, 0)
		// Doubling active queues should roughly halve the threshold.
		return th2 <= th && th2 >= th/2-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstTickAllocFree: an engine set up from slabs has room for a pause
// frame per ingress and for each port's first pending resumes. So with a flow
// paused on every ingress and a resume queued on every egress port, the
// departures that queue the resumes and the first Tick, which resumes them
// and sends a frame from every ingress, allocate nothing. The counting
// filters' counters, made at their first Add, and the pool's filter records
// are set up before.
func TestFirstTickAllocFree(t *testing.T) {
	const ports = 8
	e := NewEngine(testConfig(), ports, newFakeView(100*units.Gbps))
	type arrival struct {
		pl Placement
		p  *packet.Packet
	}
	var leaving [ports][]arrival
	for in := 0; in < ports; in++ {
		out := (in + 1) % ports
		// Two flows per ingress: the first stays paused, so the ingress has
		// a frame to send; the second leaves, which queues its resume.
		for k := range 2 {
			f := mkFlow(2*in+k+1, int32(in), 99)
			for seq := 0; !e.FlowPaused(f, in, out); seq++ {
				p := dataPkt(f, seq, 1000, seq == 0)
				pl := e.OnArrival(0, in, out, p)
				if k == 1 {
					leaving[in] = append(leaving[in], arrival{pl, p})
				}
			}
		}
	}
	pool := bloom.NewPool()
	var records [ports]*bloom.Filter
	for i := range records {
		records[i] = pool.Get()
	}
	for _, f := range records {
		pool.Put(f)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for in := range leaving {
		for _, a := range leaving[in] {
			e.OnDeparture(0, in, (in+1)%ports, a.pl, a.p)
		}
	}
	pending := e.pendingResumes
	frames := e.Tick(e.cfg.Tau, pool)
	runtime.ReadMemStats(&after)
	if pending != ports || len(frames) != ports || e.pendingResumes != 0 {
		t.Fatalf("%d resumes queued, %d frames sent, %d resumes left; want %d, %d and 0", pending, len(frames), e.pendingResumes, ports, ports)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Fatalf("queueing a resume on every port and the first Tick allocated %d objects, want 0", allocs)
	}
}
