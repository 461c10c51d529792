package packet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"bfc/internal/units"
)

func TestNumPackets(t *testing.T) {
	cases := []struct {
		size    units.Bytes
		payload units.Bytes
		want    int
	}{
		{0, 1000, 1},
		{1, 1000, 1},
		{999, 1000, 1},
		{1000, 1000, 1},
		{1001, 1000, 2},
		{10000, 1000, 10},
		{10001, 1000, 11},
	}
	for _, c := range cases {
		f := &Flow{Size: c.size}
		if got := f.NumPackets(c.payload); got != c.want {
			t.Errorf("NumPackets(size=%d, payload=%d) = %d, want %d", c.size, c.payload, got, c.want)
		}
	}
}

func TestFCT(t *testing.T) {
	f := &Flow{StartTime: 100}
	if f.FCT() != 0 {
		t.Fatal("unfinished flow should report zero FCT")
	}
	f.FinishTime = 350
	if f.FCT() != 250 {
		t.Fatalf("FCT = %v, want 250", f.FCT())
	}
}

func TestKindString(t *testing.T) {
	if Data.String() != "DATA" || Ack.String() != "ACK" || Nack.String() != "NACK" || CNP.String() != "CNP" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestIsControl(t *testing.T) {
	if (&Packet{Kind: Data}).IsControl() {
		t.Fatal("data packet should not be control")
	}
	for _, k := range []Kind{Ack, Nack, CNP} {
		if !(&Packet{Kind: k}).IsControl() {
			t.Fatalf("%v should be control", k)
		}
	}
}

// tuple returns a fresh flow carrying only a 5-tuple. Hash caches the tuple
// hash on the flow, so every probe of a new tuple needs a new flow.
func tuple(src, dst NodeID, sp, dp uint16) *Flow {
	return &Flow{Src: src, Dst: dst, SrcPort: sp, DstPort: dp}
}

func TestHashVFIDDeterministicAndInRange(t *testing.T) {
	f := tuple(3, 17, 1234, 4791)
	a := f.VFIDOf(16384)
	b := tuple(3, 17, 1234, 4791).VFIDOf(16384)
	if a != b || f.VFIDOf(16384) != a {
		t.Fatal("VFID hash not deterministic")
	}
	if int(a) >= 16384 {
		t.Fatalf("VFID %d out of range", a)
	}
}

func TestHashVFIDDistinguishesTuples(t *testing.T) {
	a := tuple(1, 2, 10, 20).VFIDOf(1 << 30)
	b := tuple(2, 1, 10, 20).VFIDOf(1 << 30)
	c := tuple(1, 2, 11, 20).VFIDOf(1 << 30)
	if a == b || a == c {
		t.Fatal("distinct tuples should almost surely hash differently in a large space")
	}
}

func TestHashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive space")
		}
	}()
	tuple(0, 0, 0, 0).VFIDOf(0)
}

func TestHashQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive queue count")
		}
	}()
	tuple(0, 0, 0, 0).QueueOf(0)
}

// Property: hashes always fall in range, are stable across calls on one flow
// (the cached path) and agree with a fresh flow of the same tuple (the
// computing path).
func TestHashProperties(t *testing.T) {
	prop := func(src, dst int32, sp, dp uint16, rawSpace uint16) bool {
		space := int(rawSpace%65535) + 1
		f := tuple(NodeID(src), NodeID(dst), sp, dp)
		v1 := f.VFIDOf(space)
		v2 := f.VFIDOf(space)
		v3 := tuple(NodeID(src), NodeID(dst), sp, dp).VFIDOf(space)
		q := f.QueueOf(32)
		return v1 == v2 && v1 == v3 && int(v1) < space && q >= 0 && q < 32 &&
			q == tuple(NodeID(src), NodeID(dst), sp, dp).QueueOf(32)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the VFID hash spreads flows roughly uniformly — with many random
// tuples into a small space, no bucket should exceed several times the mean.
func TestHashVFIDSpread(t *testing.T) {
	const space = 64
	const n = 64 * 200
	counts := make([]int, space)
	for i := 0; i < n; i++ {
		counts[tuple(NodeID(i*7), NodeID(i*13+1), uint16(i), 4791).VFIDOf(space)]++
	}
	mean := n / space
	for b, c := range counts {
		if c > 3*mean || c < mean/3 {
			t.Fatalf("bucket %d has %d flows, mean %d — hash badly skewed", b, c, mean)
		}
	}
}

// TestVFIDCollisionAnchor holds VFIDOf to the birthday expectation: m flows
// hashed into N = 2^14 VFIDs (the flow table's default space, §3.3) occupy
//
//	E = N·(1 − (1 − 1/N)^m)
//
// distinct VFIDs, and the mean over the relabellings of a row must lie within
// four standard errors of E, the error taken from the variance of the number
// of occupied bins. Two labellings: random tuples, and consecutively numbered
// ones — consecutive senders on consecutive source ports into one receiver
// per relabelling, as workload.Generate numbers an incast.
func TestVFIDCollisionAnchor(t *testing.T) {
	const space, relabellings = 1 << 14, 64
	labellings := []struct {
		name string
		flow func(rng *rand.Rand, r, i int) Flow // flow i of relabelling r
	}{
		{"random", func(rng *rand.Rand, _, _ int) Flow {
			return Flow{Src: NodeID(rng.Intn(1 << 12)), Dst: NodeID(rng.Intn(1 << 12)), SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 4791}
		}},
		{"consecutive", func(_ *rand.Rand, r, i int) Flow {
			return Flow{Src: NodeID(i), Dst: NodeID(1<<20 + r), SrcPort: uint16(40000 + i), DstPort: 4791}
		}},
	}
	for _, l := range labellings {
		for _, m := range []int{256, 1024, 4096, 16384} {
			t.Run(fmt.Sprintf("%s/m=%d", l.name, m), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(m)))
				seen := make([]int, space) // seen[v] == r+1: VFID v is occupied in relabelling r
				var mean float64
				for r := 0; r < relabellings; r++ {
					distinct := 0
					for i := 0; i < m; i++ {
						f := l.flow(rng, r, i)
						if v := f.VFIDOf(space); seen[v] != r+1 {
							seen[v] = r + 1
							distinct++
						}
					}
					mean += float64(distinct) / relabellings
				}
				n, fm := float64(space), float64(m)
				want := n * (1 - math.Pow(1-1/n, fm))
				variance := n*math.Pow(1-1/n, fm) + n*(n-1)*math.Pow(1-2/n, fm) - n*n*math.Pow(1-1/n, 2*fm)
				band := 4 * math.Sqrt(variance/relabellings)
				t.Logf("distinct VFIDs: mean=%.1f E=%.1f error=%+.1f band=±%.1f", mean, want, mean-want, band)
				if math.Abs(mean-want) > band {
					t.Errorf("mean distinct VFIDs %.1f is %+.1f from E = %.1f, band ±%.1f", mean, mean-want, want, band)
				}
			})
		}
	}
}

// TestMix64KnownAnswers pins Mix64 to splitmix64's reference stream: seeded
// with 0, its first three outputs are elements 0, 1 and 2 of Mix64(i*Gamma).
func TestMix64KnownAnswers(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Mix64(uint64(i) * Gamma); got != want {
			t.Errorf("Mix64(%d*Gamma) = %#x, want %#x", i, got, want)
		}
	}
}

// TestPacketSize: the flag bytes and the arrival port share one word, so a
// Packet with its queue link and its in-flight link fits Go's 80-byte size
// class.
func TestPacketSize(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s > 80 {
		t.Fatalf("Packet is %d bytes, want at most 80", s)
	}
}

// TestPoolPutPanicsOnQueuedOrPutPacket: Put refuses a packet a queue still
// holds and one already recycled.
func TestPoolPutPanicsOnQueuedOrPutPacket(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	pl := NewPool()
	p := pl.Get()
	p.Enqueue(nil)
	mustPanic("Put of a queued packet", func() { pl.Put(p) })
	mustPanic("Enqueue of a queued packet", func() { p.Enqueue(nil) })
	p.Dequeue()
	pl.Put(p)
	mustPanic("second Put", func() { pl.Put(p) })
}

// TestPutDropsTheWire: Put wipes the in-flight link with the rest, so a
// recycled packet pins no link and starts its next trip without one.
func TestPutDropsTheWire(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	var link int
	p.Wire = unsafe.Pointer(&link)
	pl.Put(p)
	if p.Wire != nil {
		t.Fatal("a recycled packet holds a link")
	}
}

// TestPoolCountsPagesAndFreeList: Gets carve pagePackets packets per page
// before the first reuse, Recycled counts free-list hits, and allocated minus
// Free is the number of packets out.
func TestPoolCountsPagesAndFreeList(t *testing.T) {
	var pl *Pool
	out := make([]*Packet, pagePackets+1)
	allocs := testing.AllocsPerRun(1, func() {
		pl = NewPool()
		for i := range out {
			out[i] = pl.Get()
		}
	})
	if allocs != 3 {
		t.Errorf("a pool and %d Gets made %v objects, want 3: the pool and 2 pages", len(out), allocs)
	}
	for _, p := range out[:10] {
		pl.Put(p)
	}
	if got := pl.Allocated() - uint64(pl.Free()); got != uint64(len(out)-10) {
		t.Errorf("allocated - free = %d, want %d packets out", got, len(out)-10)
	}
	for range 4 {
		pl.Get()
	}
	if pl.Recycled() != 4 || pl.Free() != 6 || pl.Allocated() != uint64(len(out)) {
		t.Errorf("recycled %d free %d allocated %d, want 4, 6 and %d", pl.Recycled(), pl.Free(), pl.Allocated(), len(out))
	}
}
