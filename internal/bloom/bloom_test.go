package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfc/internal/packet"
)

// snapshotOf returns the wire filter of a Counting holding vfids.
func snapshotOf(p Params, vfids ...packet.VFID) *Filter {
	c := NewCounting(p)
	for _, v := range vfids {
		c.Add(v)
	}
	return c.Snapshot(nil)
}

// falsePositives returns the share of 100 000 VFIDs at or above 1<<20 (none
// of them inserted) the filter matches.
func falsePositives(f *Filter) float64 {
	const probes = 100_000
	fp := 0
	for v := packet.VFID(1 << 20); v < 1<<20+probes; v++ {
		if f.Contains(v) {
			fp++
		}
	}
	return float64(fp) / probes
}

func TestFilterAddContains(t *testing.T) {
	vfids := []packet.VFID{1, 42, 16383, 9999}
	empty := snapshotOf(DefaultParams())
	for _, v := range vfids {
		if empty.Contains(v) {
			t.Fatalf("empty filter contains %d", v)
		}
	}
	f := snapshotOf(DefaultParams(), vfids...)
	for _, v := range vfids {
		if !f.Contains(v) {
			t.Fatalf("filter missing added VFID %d (bloom filters never have false negatives)", v)
		}
	}
}

func TestFilterEmptyAndWireSize(t *testing.T) {
	if n := snapshotOf(DefaultParams()).SetBits(); n != 0 {
		t.Fatalf("empty filter has %d set bits", n)
	}
	f := snapshotOf(DefaultParams(), 7)
	if n := f.SetBits(); n != DefaultHashes {
		t.Fatalf("filter with one element: set bits=%d, want %d", n, DefaultHashes)
	}
	// The pause frame carries the bit vector itself: SizeBytes on the wire.
	if size := f.params.words() * 8; size != DefaultSizeBytes {
		t.Fatalf("wire size = %d, want %d", size, DefaultSizeBytes)
	}
}

func TestFilterFalsePositiveRateLow(t *testing.T) {
	// Paper §3.6: with at most 32 queued flows paused per ingress and a
	// 128-byte filter with 4 hashes, false positives should be rare. Measure
	// empirically with 32 inserted VFIDs and 100k probes.
	rng := rand.New(rand.NewSource(1))
	inserted := map[packet.VFID]bool{}
	var vfids []packet.VFID
	for len(inserted) < 32 {
		v := packet.VFID(rng.Intn(16384))
		if !inserted[v] {
			inserted[v] = true
			vfids = append(vfids, v)
		}
	}
	if rate := falsePositives(snapshotOf(DefaultParams(), vfids...)); rate > 1e-3 {
		t.Fatalf("false positive rate %.5f too high for 32/1024 bits", rate)
	}
}

func TestSmallFilterHasMoreFalsePositives(t *testing.T) {
	// Fig 14 rationale: a 16-byte filter with many paused flows produces more
	// false positives than a 128-byte one.
	var vfids []packet.VFID
	for v := packet.VFID(0); v < 60; v++ {
		vfids = append(vfids, v*37)
	}
	small := falsePositives(snapshotOf(Params{SizeBytes: 16, Hashes: 4}, vfids...))
	large := falsePositives(snapshotOf(Params{SizeBytes: 128, Hashes: 4}, vfids...))
	if small <= large {
		t.Fatalf("small filter fp=%.4f should exceed large fp=%.4f", small, large)
	}
}

func TestParamsValidation(t *testing.T) {
	assertPanics(t, func() { NewCounting(Params{SizeBytes: 0, Hashes: 4}) })
	assertPanics(t, func() { NewCounting(Params{SizeBytes: 128, Hashes: 0}) })
	assertPanics(t, func() { NewCounting(Params{SizeBytes: 128, Hashes: 17}) })
	assertPanics(t, func() { NewCounting(Params{SizeBytes: -1, Hashes: 4}) })
	assertPanics(t, func() { NewCounting(Params{SizeBytes: MaxSizeBytes + 1, Hashes: 4}) })
}

// TestSnapshotIsOneAllocation: without a pool a snapshot costs exactly one
// object, at every size Fig 14 sweeps; from a pool with a record to spare it
// costs none, and an empty pause set is nil and costs nothing either way.
func TestSnapshotIsOneAllocation(t *testing.T) {
	for _, size := range []int{16, 32, 64, MaxSizeBytes} {
		c := NewCounting(Params{SizeBytes: size, Hashes: DefaultHashes})
		if n := testing.AllocsPerRun(100, func() {
			if c.Snapshot(nil) != nil {
				t.Fatal("snapshot of an empty pause set is not nil")
			}
		}); n != 0 {
			t.Errorf("%d B: an empty snapshot cost %v objects, want 0", size, n)
		}
		c.Add(1)
		if n := testing.AllocsPerRun(100, func() { c.Snapshot(nil) }); n != 1 {
			t.Errorf("%d B: a snapshot without a pool cost %v objects, want 1", size, n)
		}
		pool := NewPool()
		pool.Put(pool.Get())
		v := packet.VFID(1)
		if n := testing.AllocsPerRun(100, func() {
			v++
			c.Add(v)
			pool.Put(c.Snapshot(pool))
			c.Remove(v)
			pool.Put(c.Snapshot(pool))
		}); n != 0 {
			t.Errorf("%d B: snapshots from a pool cost %v objects, want 0", size, n)
		}
		if pool.Carved() != 1 {
			t.Errorf("%d B: the pool carved %d records for one at a time, want 1", size, pool.Carved())
		}
	}
}

// TestPoolCountsPagesAndFreeList: Gets carve pageFilters records per page
// before the first reuse, and carved minus Free is the number of records out.
func TestPoolCountsPagesAndFreeList(t *testing.T) {
	var pl *Pool
	out := make([]*Filter, pageFilters+1)
	allocs := testing.AllocsPerRun(1, func() {
		pl = NewPool()
		for i := range out {
			out[i] = pl.Get()
		}
	})
	if allocs != 3 {
		t.Errorf("a pool and %d Gets made %v objects, want 3: the pool and 2 pages", len(out), allocs)
	}
	for _, f := range out[:10] {
		pl.Put(f)
	}
	if got := pl.Carved() - uint64(pl.Free()); got != uint64(len(out)-10) {
		t.Errorf("carved - free = %d, want %d records out", got, len(out)-10)
	}
	for range 4 {
		pl.Get()
	}
	if pl.Free() != 6 || pl.Carved() != uint64(len(out)) {
		t.Errorf("free %d carved %d, want 6 and %d", pl.Free(), pl.Carved(), len(out))
	}
}

// TestOwnershipPanics: a record has one owner at a time. Putting it twice,
// putting the installed one, or installing a pooled or installed one panics;
// the record a Swap displaces may be put back. The nil pool allocates and
// drops, and checks the same.
func TestOwnershipPanics(t *testing.T) {
	for _, pl := range []*Pool{NewPool(), nil} {
		a, b := pl.Get(), pl.Get()
		var slot *Filter
		if Swap(&slot, a) != nil || slot != a {
			t.Fatal("installing in an empty slot displaced a filter")
		}
		assertPanics(t, func() { pl.Put(a) })
		assertPanics(t, func() { Swap(&slot, a) })
		if Swap(&slot, b) != a {
			t.Fatal("Swap did not return the displaced filter")
		}
		pl.Put(a)
		if pl != nil {
			assertPanics(t, func() { pl.Put(a) })
			assertPanics(t, func() { Swap(&slot, a) })
		}
		if Swap(&slot, nil) != b || slot != nil {
			t.Fatal("installing nil did not empty the slot")
		}
		pl.Put(b)
		pl.Put(nil)
	}
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

func TestCountingAddRemove(t *testing.T) {
	c := NewCounting(DefaultParams())
	c.Add(5)
	c.Add(9)
	if !c.Snapshot(nil).Contains(5) || !c.Snapshot(nil).Contains(9) {
		t.Fatal("counting filter missing added members")
	}
	if c.Members() != 2 {
		t.Fatalf("members = %d, want 2", c.Members())
	}
	c.Remove(5)
	if c.Snapshot(nil).Contains(5) && !c.Snapshot(nil).Contains(9) {
		t.Fatal("filter corrupted after removal")
	}
	if !c.Snapshot(nil).Contains(9) {
		t.Fatal("removing one member must not evict another (counting semantics)")
	}
	c.Remove(9)
	if c.Members() != 0 {
		t.Fatalf("members = %d, want 0", c.Members())
	}
	if c.Snapshot(nil).Contains(9) {
		t.Fatal("empty counting filter should contain nothing")
	}
}

func TestCountingCollisionSemantics(t *testing.T) {
	// Two colliding VFIDs: removing one must keep the other paused. With a
	// tiny 1-byte filter and 1 hash, collisions are easy to force.
	p := Params{SizeBytes: 1, Hashes: 1}
	c := NewCounting(p)
	// find two VFIDs colliding on the same position
	var buf [16]int
	target := p.positions(1, buf[:0])[0]
	var other packet.VFID
	for v := packet.VFID(2); ; v++ {
		if p.positions(v, buf[:0])[0] == target {
			other = v
			break
		}
	}
	c.Add(1)
	c.Add(other)
	c.Remove(1)
	if !c.Snapshot(nil).Contains(other) {
		t.Fatal("counting filter lost a member after removing a colliding one")
	}
}

func TestCountingUnderflowPanics(t *testing.T) {
	c := NewCounting(DefaultParams())
	assertPanics(t, func() { c.Remove(3) })
}

// TestCountingBeforeFirstAdd: a Counting that never paused a flow holds no
// counters, yet answers and snapshots like an empty one: its snapshot is the
// nil Filter, which contains nothing.
func TestCountingBeforeFirstAdd(t *testing.T) {
	c := NewCounting(DefaultParams())
	if c.Snapshot(nil).Contains(3) || c.Members() != 0 {
		t.Fatal("a fresh counting filter should be empty")
	}
	if snap := c.Snapshot(nil); snap != nil || snap.SetBits() != 0 {
		t.Fatalf("snapshot of a fresh counting filter = %v, want nil", snap)
	}
	c.Add(3)
	if !c.Snapshot(nil).Contains(3) {
		t.Fatal("the first Add should register the VFID")
	}
}

func TestSnapshotMatchesCounting(t *testing.T) {
	c := NewCounting(DefaultParams())
	vfids := []packet.VFID{3, 77, 1024, 9000}
	for _, v := range vfids {
		c.Add(v)
	}
	snap := c.Snapshot(nil)
	for _, v := range vfids {
		if !snap.Contains(v) {
			t.Fatalf("snapshot missing %d", v)
		}
	}
	for _, v := range vfids {
		c.Remove(v)
	}
	if c.Members() != 0 || c.Snapshot(nil).Contains(3) {
		t.Fatal("removing every member should empty the counting filter")
	}
	// A snapshot taken before the removals is unaffected by them.
	for _, v := range vfids {
		if !snap.Contains(v) {
			t.Fatalf("snapshot lost %d after the counting filter changed", v)
		}
	}
	if c.Snapshot(nil).SetBits() != 0 {
		t.Fatal("snapshot of an empty counting filter should be empty")
	}
}

// fullScan is the reference Snapshot: a fresh filter with a bit for every
// non-zero counter.
func fullScan(c *Counting) *Filter {
	f := &Filter{params: c.params}
	for pos, cnt := range c.counts {
		if cnt > 0 {
			f.bits[pos/64] |= 1 << (pos % 64)
		}
	}
	return f
}

// Property: after any Add/Remove sequence Snapshot's bits equal a full scan of
// the counters (nil exactly when nothing is paused), every snapshot is a
// record of its own, and no filter Snapshot has returned ever changes while
// its owner holds it — not when the Counting changes, and not when other
// records go through the same pool, whose stale bits never show.
func TestSnapshotIncrementalProperty(t *testing.T) {
	prop := func(seed int64, n uint8, sizeIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{1, 16, 128}
		c := NewCounting(Params{SizeBytes: sizes[int(sizeIdx)%len(sizes)], Hashes: 4})
		pool := NewPool()
		type issued struct {
			f    *Filter
			bits [MaxSizeBytes / 8]uint64
		}
		var held []issued
		var present []packet.VFID
		for i := 0; i < int(n); i++ {
			if len(present) == 0 || rng.Intn(3) != 0 {
				v := packet.VFID(rng.Intn(512))
				c.Add(v)
				present = append(present, v)
			} else {
				j := rng.Intn(len(present))
				c.Remove(present[j])
				present = append(present[:j], present[j+1:]...)
			}
			snap := c.Snapshot(pool)
			if (snap == nil) != (len(present) == 0) {
				return false
			}
			if snap == nil {
				continue
			}
			if snap.bits != fullScan(c).bits || snap.params != c.params {
				return false
			}
			for _, h := range held {
				if h.f == snap {
					return false
				}
			}
			held = append(held, issued{snap, snap.bits})
			// Give a random held record back, as a receiver does with the
			// filter a newer one displaces.
			if rng.Intn(2) == 0 {
				j := rng.Intn(len(held))
				pool.Put(held[j].f)
				held = append(held[:j], held[j+1:]...)
			}
			for _, h := range held {
				if h.f.bits != h.bits {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: no false negatives — anything added to a Counting and not
// removed is contained in its snapshot.
func TestNoFalseNegativesProperty(t *testing.T) {
	prop := func(raw []uint32, sizeIdx uint8) bool {
		sizes := []int{16, 32, 64, 128}
		p := Params{SizeBytes: sizes[int(sizeIdx)%len(sizes)], Hashes: 4}
		c := NewCounting(p)
		for _, r := range raw {
			c.Add(packet.VFID(r % 65536))
		}
		snap := c.Snapshot(nil)
		for _, r := range raw {
			v := packet.VFID(r % 65536)
			if !snap.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: add/remove sequences on Counting never let membership of a
// still-present VFID disappear.
func TestCountingAddRemoveProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCounting(Params{SizeBytes: 32, Hashes: 4})
		present := map[packet.VFID]int{}
		for i := 0; i < int(n); i++ {
			v := packet.VFID(rng.Intn(512))
			if rng.Intn(2) == 0 || present[v] == 0 {
				c.Add(v)
				present[v]++
			} else {
				c.Remove(v)
				present[v]--
			}
			for pv, cnt := range present {
				if cnt > 0 && !c.Snapshot(nil).Contains(pv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
