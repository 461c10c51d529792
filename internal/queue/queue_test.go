package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfc/internal/packet"
	"bfc/internal/units"
)

func pkt(size units.Bytes) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Size: size}
}

func TestFIFOBasics(t *testing.T) {
	q := NewFIFO()
	if !q.Empty() || q.Len() != 0 || q.Bytes() != 0 || q.Pop() != nil || q.Head() != nil {
		t.Fatal("new queue should be empty")
	}
	a, b, c := pkt(100), pkt(200), pkt(300)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Len() != 3 || q.Bytes() != 600 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	if q.MaxBytes != 600 {
		t.Fatalf("MaxBytes = %d, want 600", q.MaxBytes)
	}
	if q.Head() != a {
		t.Fatal("head should be first pushed")
	}
	if q.Pop() != a || q.Pop() != b || q.Pop() != c {
		t.Fatal("FIFO order violated")
	}
	if !q.Empty() || q.Bytes() != 0 {
		t.Fatal("queue should be empty after popping everything")
	}
}

func TestFIFOPauseFlag(t *testing.T) {
	q := NewFIFO()
	if q.Paused() {
		t.Fatal("new queue should not be paused")
	}
	q.SetPaused(true)
	if !q.Paused() {
		t.Fatal("pause flag not set")
	}
	q.SetPaused(false)
	if q.Paused() {
		t.Fatal("pause flag not cleared")
	}
}

func TestFIFOPushNilPanics(t *testing.T) {
	q := NewFIFO()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Push(nil)
}

func TestFIFOForEach(t *testing.T) {
	q := NewFIFO()
	for i := 0; i < 5; i++ {
		q.Push(pkt(units.Bytes(i + 1)))
	}
	q.Pop()
	var sizes []units.Bytes
	q.ForEach(func(p *packet.Packet) { sizes = append(sizes, p.Size) })
	if len(sizes) != 4 || sizes[0] != 2 || sizes[3] != 5 {
		t.Fatalf("ForEach order wrong: %v", sizes)
	}
}

// TestFIFORewindsWhenDrained: a queue that never holds more than one packet
// reuses the front of its backing array instead of walking it forward.
func TestFIFORewindsWhenDrained(t *testing.T) {
	q := NewFIFO()
	p := pkt(100)
	for i := 0; i < 10000; i++ {
		q.Push(p)
		if q.Pop() != p || !q.Empty() || q.Bytes() != 0 {
			t.Fatalf("push/pop %d: queue not empty after popping its only packet", i)
		}
	}
	if c := cap(q.packets); c > 2 {
		t.Fatalf("10000 push/pop pairs at depth 1 grew the backing array to %d", c)
	}
}

func TestFIFOCompaction(t *testing.T) {
	// Push and pop many packets to force internal compaction; FIFO order and
	// byte accounting must survive.
	q := NewFIFO()
	next := 0
	popped := 0
	for i := 0; i < 1000; i++ {
		q.Push(pkt(units.Bytes(next + 1)))
		next++
		if i%2 == 1 {
			p := q.Pop()
			popped++
			if p.Size != units.Bytes(popped) {
				t.Fatalf("popped size %d, want %d", p.Size, popped)
			}
		}
	}
	for !q.Empty() {
		p := q.Pop()
		popped++
		if p.Size != units.Bytes(popped) {
			t.Fatalf("popped size %d, want %d", p.Size, popped)
		}
	}
	if popped != 1000 {
		t.Fatalf("popped %d packets, want 1000", popped)
	}
}

func TestDRRValidation(t *testing.T) {
	assertPanics(t, func() { NewDRR([]*FIFO{NewFIFO()}, 0) })
	assertPanics(t, func() { NewDRR(nil, 1000) })
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

func TestDRREmptyReturnsNothing(t *testing.T) {
	d := NewDRR([]*FIFO{NewFIFO(), NewFIFO()}, 1000)
	if p, i := d.Dequeue(); p != nil || i != -1 {
		t.Fatal("dequeue from empty scheduler should return nil")
	}
	if d.ActiveQueues() != 0 {
		t.Fatal("empty scheduler should have no work")
	}
}

func TestDRRFairnessEqualSizes(t *testing.T) {
	// Two queues with equal-size packets should alternate service and get
	// equal shares.
	qa, qb := NewFIFO(), NewFIFO()
	for i := 0; i < 100; i++ {
		qa.Push(pkt(1000))
		qb.Push(pkt(1000))
	}
	d := NewDRR([]*FIFO{qa, qb}, 1000)
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		p, idx := d.Dequeue()
		if p == nil {
			t.Fatal("unexpected empty dequeue")
		}
		counts[idx]++
	}
	if counts[0] != 50 || counts[1] != 50 {
		t.Fatalf("unfair service: %v", counts)
	}
}

func TestDRRFairnessByBytes(t *testing.T) {
	// One queue has 500B packets, the other 1000B packets. Byte-level shares
	// should be roughly equal (within one quantum per queue).
	qa, qb := NewFIFO(), NewFIFO()
	for i := 0; i < 400; i++ {
		qa.Push(pkt(500))
	}
	for i := 0; i < 200; i++ {
		qb.Push(pkt(1000))
	}
	d := NewDRR([]*FIFO{qa, qb}, 1000)
	bytes := map[int]units.Bytes{}
	var total units.Bytes
	for total < 100000 {
		p, idx := d.Dequeue()
		if p == nil {
			t.Fatal("unexpected empty dequeue")
		}
		bytes[idx] += p.Size
		total += p.Size
	}
	diff := bytes[0] - bytes[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 2000 {
		t.Fatalf("byte shares differ by %d: %v", diff, bytes)
	}
}

func TestDRRSkipsPausedQueues(t *testing.T) {
	qa, qb := NewFIFO(), NewFIFO()
	for i := 0; i < 10; i++ {
		qa.Push(pkt(1000))
		qb.Push(pkt(1000))
	}
	qa.SetPaused(true)
	d := NewDRR([]*FIFO{qa, qb}, 1000)
	if d.ActiveQueues() != 1 {
		t.Fatalf("ActiveQueues = %d, want 1", d.ActiveQueues())
	}
	for i := 0; i < 10; i++ {
		_, idx := d.Dequeue()
		if idx != 1 {
			t.Fatal("scheduler served a paused queue")
		}
	}
	// Only paused work remains: scheduler reports no work.
	if d.ActiveQueues() != 0 {
		t.Fatal("paused-only scheduler should report no work")
	}
	if p, _ := d.Dequeue(); p != nil {
		t.Fatal("dequeue should return nil when only paused queues remain")
	}
	// Unpausing makes the work visible again.
	qa.SetPaused(false)
	if d.ActiveQueues() == 0 {
		t.Fatal("unpaused queue should be serviceable")
	}
	if p, idx := d.Dequeue(); p == nil || idx != 0 {
		t.Fatal("unpaused queue should be served")
	}
}

func TestDRRWorkConserving(t *testing.T) {
	// With one busy queue and others empty, the busy queue gets full service.
	queues := make([]*FIFO, 8)
	for i := range queues {
		queues[i] = NewFIFO()
	}
	for i := 0; i < 50; i++ {
		queues[3].Push(pkt(1000))
	}
	d := NewDRR(queues, 1000)
	for i := 0; i < 50; i++ {
		p, idx := d.Dequeue()
		if p == nil || idx != 3 {
			t.Fatalf("dequeue %d: got idx %d", i, idx)
		}
	}
}

func TestDRRLargePacketsSmallQuantum(t *testing.T) {
	// Packets larger than the quantum must still be scheduled (deficit
	// accumulates across rounds).
	qa, qb := NewFIFO(), NewFIFO()
	qa.Push(pkt(4000))
	qb.Push(pkt(1000))
	d := NewDRR([]*FIFO{qa, qb}, 1000)
	got := 0
	for {
		p, _ := d.Dequeue()
		if p == nil {
			break
		}
		got++
	}
	if got != 2 {
		t.Fatalf("dequeued %d packets, want 2", got)
	}
}

// Property: DRR conserves packets — every pushed packet is dequeued exactly
// once, regardless of packet sizes, and never from a paused queue while
// paused.
func TestDRRConservationProperty(t *testing.T) {
	prop := func(seed int64, nq, np uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numQ := int(nq%8) + 1
		queues := make([]*FIFO, numQ)
		for i := range queues {
			queues[i] = NewFIFO()
		}
		total := int(np%200) + 1
		for i := 0; i < total; i++ {
			queues[rng.Intn(numQ)].Push(pkt(units.Bytes(rng.Intn(1500) + 1)))
		}
		d := NewDRR(queues, 1000)
		got := 0
		for {
			p, idx := d.Dequeue()
			if p == nil {
				break
			}
			if idx < 0 || idx >= numQ {
				return false
			}
			got++
			if got > total {
				return false
			}
		}
		return got == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// walkDRR is deficit round robin with a pointer that moves one queue at a
// time, zeroing the deficit of every queue it cannot serve. It is the slow,
// obvious model DRR is held to, over its own standalone FIFOs.
type walkDRR struct {
	queues   []*FIFO
	deficits []units.Bytes
	quantum  units.Bytes
	next     int
	credited bool
}

func (d *walkDRR) serviceable(i int) bool { return !d.queues[i].Empty() && !d.queues[i].Paused() }

func (d *walkDRR) dequeue() (*packet.Packet, int) {
	n := len(d.queues)
	hasWork := false
	for i := range d.queues {
		hasWork = hasWork || d.serviceable(i)
	}
	if !hasWork {
		return nil, -1
	}
	for visits := 0; visits < 32*n; visits++ {
		i := d.next
		if !d.serviceable(i) {
			d.deficits[i] = 0
			d.advance()
			continue
		}
		q := d.queues[i]
		if !d.credited {
			d.deficits[i] += d.quantum
			d.credited = true
		}
		if head := q.Head(); d.deficits[i] >= head.Size {
			d.deficits[i] -= head.Size
			p := q.Pop()
			if q.Empty() {
				d.deficits[i] = 0
				d.advance()
			}
			return p, i
		}
		d.advance()
	}
	panic("walk DRR failed to make progress")
}

func (d *walkDRR) advance() {
	if d.next++; d.next == len(d.queues) {
		d.next = 0
	}
	d.credited = false
}

// TestDRRMatchesLinearWalk drives DRR and the walkDRR model through the same
// random interleavings of Push, Dequeue and SetPaused and asserts, after every
// step, the same (packet, index) from each dequeue, identical deficits and the
// same pointer. A few queues per run take traffic, spread across the bitmap's words, so the
// pointer wraps, crosses word boundaries and skips paused queues that still
// hold leftover credit.
func TestDRRMatchesLinearWalk(t *testing.T) {
	const quantum = 1500
	for _, n := range []int{1, 2, 33, 63, 64, 65, 129, 1001} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed*1009 + int64(n)))
			fast, slow := make([]*FIFO, n), make([]*FIFO, n)
			for i := range fast {
				fast[i], slow[i] = NewFIFO(), NewFIFO()
			}
			d := NewDRR(fast, quantum)
			m := &walkDRR{queues: slow, deficits: make([]units.Bytes, n), quantum: quantum}
			active := make([]int, 1+rng.Intn(min(n, 6)))
			for k := range active {
				active[k] = rng.Intn(n)
			}
			active[0] = n - 1 // the last queue, so the pointer wraps from a ready bit
			for step := 0; step < 3000; step++ {
				i := active[rng.Intn(len(active))]
				switch r := rng.Intn(10); {
				case r < 4:
					p := pkt(units.Bytes(1 + rng.Intn(2*quantum)))
					fast[i].Push(p)
					slow[i].Push(p)
				case r < 8:
					gp, gi := d.Dequeue()
					wp, wi := m.dequeue()
					if gp != wp || gi != wi {
						t.Fatalf("n=%d seed=%d step %d: Dequeue = (%p, %d), walk = (%p, %d)", n, seed, step, gp, gi, wp, wi)
					}
				default:
					paused := !fast[i].Paused()
					fast[i].SetPaused(paused)
					slow[i].SetPaused(paused)
				}
				for q := range d.deficits {
					if d.deficits[q] != m.deficits[q] {
						t.Fatalf("n=%d seed=%d step %d: deficit[%d] = %d, walk has %d", n, seed, step, q, d.deficits[q], m.deficits[q])
					}
				}
				if d.next != m.next || d.credited != m.credited {
					t.Fatalf("n=%d seed=%d step %d: pointer (%d, credited=%v), walk (%d, credited=%v)", n, seed, step, d.next, d.credited, m.next, m.credited)
				}
			}
		}
	}
}

// Property: long-run DRR byte shares between two persistently backlogged
// queues differ by at most a few quanta, independent of packet size mix.
func TestDRRFairnessProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qa, qb := NewFIFO(), NewFIFO()
		for i := 0; i < 3000; i++ {
			qa.Push(pkt(units.Bytes(rng.Intn(1400) + 100)))
			qb.Push(pkt(units.Bytes(rng.Intn(1400) + 100)))
		}
		d := NewDRR([]*FIFO{qa, qb}, 1500)
		bytes := [2]units.Bytes{}
		var total units.Bytes
		for total < 1_000_000 {
			p, idx := d.Dequeue()
			if p == nil {
				return false
			}
			bytes[idx] += p.Size
			total += p.Size
		}
		diff := bytes[0] - bytes[1]
		if diff < 0 {
			diff = -diff
		}
		return diff <= 3*1500
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
