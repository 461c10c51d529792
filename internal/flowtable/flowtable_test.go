package flowtable

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"bfc/internal/packet"
)

func TestInsertLookupRemove(t *testing.T) {
	tbl := newTable(64, 4, 10)
	if tbl.Active() != 0 {
		t.Fatal("new table should be empty")
	}
	e, res := tbl.Insert(5, 1, 2)
	if res != InsertedBucket || e == nil {
		t.Fatalf("insert result = %v", res)
	}
	if e.Queue != -1 {
		t.Fatal("new entry should have no queue assigned")
	}
	if got := tbl.Lookup(5, 1, 2); got != e {
		t.Fatal("lookup did not return inserted entry")
	}
	if got := tbl.Lookup(5, 1, 3); got != nil {
		t.Fatal("lookup with different egress should miss")
	}
	if got := tbl.Lookup(5, 0, 2); got != nil {
		t.Fatal("lookup with different ingress should miss")
	}
	tbl.Remove(e)
	if tbl.Active() != 0 || tbl.Lookup(5, 1, 2) != nil {
		t.Fatal("entry not removed")
	}
}

func TestSameVFIDDifferentPorts(t *testing.T) {
	tbl := newTable(64, 4, 10)
	a, _ := tbl.Insert(7, 1, 2)
	b, _ := tbl.Insert(7, 3, 4)
	if a == b {
		t.Fatal("entries with different port pairs must be distinct")
	}
	if tbl.Lookup(7, 1, 2) != a || tbl.Lookup(7, 3, 4) != b {
		t.Fatal("lookup confused entries in the same bucket")
	}
	if tbl.Active() != 2 {
		t.Fatalf("active = %d, want 2", tbl.Active())
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tbl := newTable(64, 4, 10)
	tbl.Insert(7, 1, 2)
	assertPanics(t, func() { tbl.Insert(7, 1, 2) })
}

// insertCounts tallies what a test observes of a table: the inserts that
// created an entry, those that found the bucket full, those that found the
// overflow cache full too, all from Insert's results, and the high-water of
// Active.
type insertCounts struct {
	inserts, bucketFull, cacheFull uint64
	maxActive                      int
}

// note tallies one Insert result and the table's Active after it.
func (c *insertCounts) note(res InsertResult, active int) {
	switch res {
	case InsertedBucket:
		c.inserts++
	case InsertedOverflowCache:
		c.inserts++
		c.bucketFull++
	case InsertFailed:
		c.bucketFull++
		c.cacheFull++
	}
	c.maxActive = max(c.maxActive, active)
}

func TestBucketOverflowToCache(t *testing.T) {
	tbl := newTable(8, 2, 3)
	var c insertCounts
	// Fill bucket for VFID 1 (bucket size 2).
	for out := 0; out < 2; out++ {
		_, res := tbl.Insert(1, 0, out)
		c.note(res, tbl.Active())
	}
	// Third entry for same VFID goes to the overflow cache.
	e, res := tbl.Insert(1, 0, 2)
	c.note(res, tbl.Active())
	if res != InsertedOverflowCache || e == nil {
		t.Fatalf("expected overflow cache insert, got %v", res)
	}
	if tbl.Lookup(1, 0, 2) != e {
		t.Fatal("overflow entry not found by lookup")
	}
	if c.bucketFull != 1 {
		t.Fatalf("%d inserts found the bucket full, want 1", c.bucketFull)
	}
	// Removing an overflow entry works and frees cache space.
	tbl.Remove(e)
	if tbl.Lookup(1, 0, 2) != nil {
		t.Fatal("overflow entry not removed")
	}
}

func TestCacheFull(t *testing.T) {
	tbl := newTable(4, 1, 2)
	var c insertCounts
	for out := 0; out < 3; out++ { // bucket, cache 1, cache 2
		_, res := tbl.Insert(0, 0, out)
		c.note(res, tbl.Active())
	}
	e, res := tbl.Insert(0, 0, 3)
	c.note(res, tbl.Active())
	if res != InsertFailed || e != nil {
		t.Fatalf("expected InsertFailed, got %v", res)
	}
	if c.cacheFull != 1 {
		t.Fatalf("%d inserts found the cache full, want 1", c.cacheFull)
	}
	if tbl.Active() != 3 {
		t.Fatalf("active = %d, want 3", tbl.Active())
	}
}

func TestRemoveUnknownPanics(t *testing.T) {
	tbl := newTable(8, 2, 2)
	assertPanics(t, func() { tbl.Remove(nil) })
	assertPanics(t, func() { tbl.Remove(&Entry{VFID: 1}) })
	assertPanics(t, func() { tbl.Remove(&Entry{VFID: 1, inOverflow: true}) })
}

func TestVFIDOutOfRangePanics(t *testing.T) {
	tbl := newTable(8, 2, 2)
	assertPanics(t, func() { tbl.Lookup(8, 0, 0) })
	assertPanics(t, func() { tbl.Insert(100, 0, 0) })
}

func TestConstructorValidation(t *testing.T) {
	assertPanics(t, func() { newTable(0, 4, 100) })
	assertPanics(t, func() { newTable(16, 0, 100) })
	assertPanics(t, func() { newTable(16, 4, -1) })
}

func TestActiveAndMemory(t *testing.T) {
	tbl := New(128)
	tbl.Insert(1, 0, 1)
	tbl.Insert(2, 0, 1)
	tbl.Insert(3, 1, 2)
	if tbl.Active() != 3 {
		t.Fatalf("Active() = %d, want 3", tbl.Active())
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if tbl.numVFIDs != 128 || tbl.bucketSize != 4 {
		t.Fatalf("table sized %d x %d, want 128 x 4", tbl.numVFIDs, tbl.bucketSize)
	}
}

func TestPaperSizing(t *testing.T) {
	// §3.8: 16K VFIDs, 4-way buckets, each slot's state (physical queue id,
	// pause bit, packet counter, ingress/egress port ids) packed in 4 bytes
	// => 256 KB of state, beside a 100-entry overflow cache.
	tbl := New(DefaultNumVFIDs)
	if mem := tbl.numVFIDs * tbl.bucketSize * 4; mem != 256*1024 {
		t.Fatalf("default table memory = %d bytes, want 256KB", mem)
	}
	if tbl.overflowCap != 100 {
		t.Fatalf("overflow cache holds %d entries, want 100", tbl.overflowCap)
	}
}

func TestMaxOccupancyTracking(t *testing.T) {
	tbl := newTable(64, 4, 10)
	var c insertCounts
	insert := func(v packet.VFID) *Entry {
		e, res := tbl.Insert(v, 0, 0)
		c.note(res, tbl.Active())
		return e
	}
	a := insert(1)
	b := insert(2)
	tbl.Remove(a)
	insert(3)
	tbl.Remove(b)
	if c.maxActive != 2 {
		t.Fatalf("Active peaked at %d, want 2", c.maxActive)
	}
	if c.inserts != 3 {
		t.Fatalf("%d inserts created an entry, want 3", c.inserts)
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

// Property: seeded random Insert/Lookup/Remove sequences, on a table small
// enough to pass through bucket-full, the overflow cache and InsertFailed,
// agree with a map model on every result, on the tallies of those results
// and on Active and its high-water, keep every
// live *Entry where it was, hand a removed entry's slot to the next insert,
// and pass Check.
func TestTableMatchesReferenceMap(t *testing.T) {
	const vfids, bucketSize, overflowCap, ports = 8, 2, 3, 3
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := newTable(vfids, bucketSize, overflowCap)
		ref := map[Key]*Entry{}
		var got, want insertCounts
		bucketLen := map[packet.VFID]int{}
		overflowed := 0
		var lastRemoved *Entry
		results := map[InsertResult]int{}
		for i := 0; i < 400; i++ {
			k := Key{VFID: packet.VFID(rng.Intn(vfids)), Ingress: rng.Intn(ports), Egress: rng.Intn(ports)}
			e, live := ref[k]
			switch {
			case live && rng.Intn(3) > 0:
				tbl.Remove(e)
				delete(ref, k)
				if e.inOverflow {
					overflowed--
				} else {
					bucketLen[k.VFID]--
				}
				lastRemoved = e
				assertPanics(t, func() { tbl.Remove(e) })
			case live:
				assertPanics(t, func() { tbl.Insert(k.VFID, k.Ingress, k.Egress) })
			default:
				wantRes := InsertedBucket
				if bucketLen[k.VFID] == bucketSize {
					want.bucketFull++
					wantRes = InsertedOverflowCache
					if overflowed == overflowCap {
						want.cacheFull++
						wantRes = InsertFailed
					}
				}
				e, res := tbl.Insert(k.VFID, k.Ingress, k.Egress)
				got.note(res, tbl.Active())
				results[res]++
				if res != wantRes || (e == nil) != (res == InsertFailed) {
					t.Logf("seed %d op %d: insert %+v = %v, want %v", seed, i, k, res, wantRes)
					return false
				}
				if res == InsertFailed {
					break
				}
				if lastRemoved != nil && e != lastRemoved {
					t.Logf("seed %d op %d: removed entry not reused", seed, i)
					return false
				}
				lastRemoved = nil
				if *e != (Entry{VFID: k.VFID, Ingress: k.Ingress, Egress: k.Egress, Queue: -1,
					inOverflow: res == InsertedOverflowCache, slot: e.slot, next: e.next}) {
					t.Logf("seed %d op %d: recycled entry not reset: %+v", seed, i, *e)
					return false
				}
				ref[k] = e
				want.inserts++
				if res == InsertedBucket {
					bucketLen[k.VFID]++
				} else {
					overflowed++
				}
				want.maxActive = max(want.maxActive, len(ref))
			}
			if tbl.Active() != len(ref) || got != want {
				t.Logf("seed %d op %d: active %d counts %+v, want %d %+v", seed, i, tbl.Active(), got, len(ref), want)
				return false
			}
			// Every key: live ones resolve to the pointer Insert returned,
			// still carrying their key; all others miss.
			for v := 0; v < vfids; v++ {
				for in := 0; in < ports; in++ {
					for out := 0; out < ports; out++ {
						k2 := Key{VFID: packet.VFID(v), Ingress: in, Egress: out}
						got := tbl.Lookup(k2.VFID, in, out)
						if got != ref[k2] || (got != nil && (Key{got.VFID, got.Ingress, got.Egress}) != k2) {
							t.Logf("seed %d op %d: lookup %+v = %p, want %p", seed, i, k2, got, ref[k2])
							return false
						}
					}
				}
			}
			if err := tbl.Check(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		if results[InsertedBucket] == 0 || results[InsertedOverflowCache] == 0 || results[InsertFailed] == 0 {
			t.Logf("seed %d: sequence never reached every insert outcome: %v", seed, results)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestEntriesComeFromPages: a table carves its entries from its store's
// pages, pageEntries at a time: the slab's first pageEntries entries lie side
// by side, the next Insert carves a new page and takes its first entry, and
// an entry keeps its slab slot and address through Remove and reuse.
func TestEntriesComeFromPages(t *testing.T) {
	tbl := newTable(DefaultNumVFIDs, defaultBucketSize, 0)
	size := unsafe.Sizeof(Entry{})
	addr := func(e *Entry) uintptr { return uintptr(unsafe.Pointer(e)) }
	for v := range packet.VFID(pageEntries) {
		tbl.Insert(v, 0, 1)
	}
	for i := 1; i < pageEntries; i++ {
		if addr(tbl.store.slab[i])-addr(tbl.store.slab[i-1]) != size {
			t.Fatalf("entries %d and %d of the first page are not side by side", i-1, i)
		}
	}
	if len(tbl.store.page) != 0 {
		t.Fatalf("%d entries left in the page after carving %d, want 0", len(tbl.store.page), pageEntries)
	}
	last, _ := tbl.Insert(pageEntries, 0, 1)
	if len(tbl.store.page) != pageEntries-1 || addr(&tbl.store.page[0])-addr(last) != size {
		t.Fatalf("the entry after a full page is not the first of a new page (%d left in the page)", len(tbl.store.page))
	}
	first := tbl.store.slab[0]
	tbl.Remove(first)
	if e, _ := tbl.Insert(0, 2, 3); e != first || len(tbl.store.slab) != pageEntries+1 {
		t.Fatalf("reinsert got entry %p with %d in the slab, want the freed %p with %d", e, len(tbl.store.slab), first, pageEntries+1)
	}
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTablesShareOneStore: 64 tables of one shard carving from one Store,
// each churning four entries at a time, allocate the store's two pages and
// its slab's growth, not a page and a slab per table.
func TestTablesShareOneStore(t *testing.T) {
	const tables, live = 64, 4
	allocs := testing.AllocsPerRun(1, func() {
		store, tbls, index := new(Store), make([]Table, tables), make([]Index, tables)
		for i := range tbls {
			tbls[i].Init(DefaultNumVFIDs, &index[i], store)
		}
		for round := range 8 {
			for i := range tbls {
				var held [live]*Entry
				for j := range held {
					held[j], _ = tbls[i].Insert(packet.VFID(round*live+j), 0, 1)
				}
				for _, e := range held {
					tbls[i].Remove(e)
				}
			}
		}
	})
	pages, growths := tables*live/pageEntries, bits.Len(tables*live)
	t.Logf("%d tables churning %d entries each: %v objects", tables, live, allocs)
	if want := 3 + pages + growths; allocs > float64(want) {
		t.Fatalf("%d tables churning %d entries each allocated %v objects, want at most %d: the store, tables and indexes, %d pages and %d slab growths",
			tables, live, allocs, want, pages, growths)
	}
}

// TestIndexesComeFromTheStore: a table that outgrows its index takes the
// doubled one from its store, carved from a page of cells, and hands the old
// one back; the next table to grow to that length takes it, emptied. 64
// tables growing to 32 cells each allocate the store's pages of cells, not
// two indexes per table.
func TestIndexesComeFromTheStore(t *testing.T) {
	var store Store
	var a, b Table
	a.Init(DefaultNumVFIDs, new(Index), &store)
	b.Init(DefaultNumVFIDs, new(Index), &store)
	for v := range packet.VFID(9) { // 9 VFIDs: 8 cells, then 16, then 32
		a.Insert(v, 0, 1)
	}
	if len(a.index) != 32 || len(store.spare[4]) != 1 {
		t.Fatalf("9 VFIDs left a %d-cell index and %d spare 16-cell ones, want 32 and 1", len(a.index), len(store.spare[4]))
	}
	outgrown := &store.spare[4][0][0]
	for v := range packet.VFID(5) { // 5 VFIDs: 8 cells, then 16
		b.Insert(100+v, 0, 1)
	}
	if len(b.index) != 16 || &b.index[0] != outgrown {
		t.Fatal("the second table to grow to 16 cells did not take the index the first grew out of")
	}
	for _, tbl := range []*Table{&a, &b} {
		if err := tbl.Check(); err != nil {
			t.Fatal(err)
		}
	}

	const tables = 64
	allocs := testing.AllocsPerRun(1, func() {
		store, tbls, index := new(Store), make([]Table, tables), make([]Index, tables)
		for i := range tbls {
			tbls[i].Init(DefaultNumVFIDs, &index[i], store)
			for v := range packet.VFID(9) {
				tbls[i].Insert(v, 0, 1)
			}
		}
	})
	// The first table carves a 16-cell index, every table a 32-cell one; the
	// others take the 16 the one before grew out of. What the tables allocate
	// is the store's pages, of entries and of cells, and the slab's growth:
	// 21 objects, where an index made per doubling took 145.
	t.Logf("%d tables growing to 32 cells: %v objects", tables, allocs)
	if allocs >= tables {
		t.Fatalf("%d tables growing to 32 cells allocated %v objects, want fewer than one per table", tables, allocs)
	}
}

// TestSharedStoreKeepsEachOrder: tables sharing a store walk their entries,
// bucket and overflow alike, in the order that tables with stores of their
// own do under the same operations, whatever the other tables do in between:
// a table recycles only the entries it carved, so its entries lie in the
// shared slab in its own carving order.
func TestSharedStoreKeepsEachOrder(t *testing.T) {
	const tables, vfids = 16, 8
	var store Store
	shared, own := make([]Table, tables), make([]Table, tables)
	index := make([]Index, 2*tables)
	for i := range shared {
		// Buckets of one entry and a four-entry cache, so entries spill.
		shared[i].init(vfids, 1, 4, &index[i], &store)
		own[i].init(vfids, 1, 4, &index[tables+i], new(Store))
	}
	keys := func(tbl *Table) []Key {
		var ks []Key
		for e := range tbl.Each {
			ks = append(ks, Key{e.VFID, e.Ingress, e.Egress})
		}
		return ks
	}
	rng := rand.New(rand.NewSource(1))
	spilled := 0
	for step := range 20_000 {
		i := rng.Intn(tables)
		v, in := packet.VFID(rng.Intn(vfids)), rng.Intn(3)
		if e := shared[i].Lookup(v, in, 0); e != nil {
			shared[i].Remove(e)
			own[i].Remove(own[i].Lookup(v, in, 0))
		} else {
			_, res := shared[i].Insert(v, in, 0)
			own[i].Insert(v, in, 0)
			if res == InsertedOverflowCache {
				spilled++
			}
		}
		if err := shared[i].Check(); err != nil {
			t.Fatalf("step %d, table %d: %v", step, i, err)
		}
		if got, want := keys(&shared[i]), keys(&own[i]); !slices.Equal(got, want) {
			t.Fatalf("step %d, table %d: Each visits %v, with a store of its own %v", step, i, got, want)
		}
	}
	if spilled == 0 {
		t.Fatal("no entry spilled into an overflow cache")
	}
}
