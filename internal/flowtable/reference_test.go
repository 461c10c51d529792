package flowtable

import (
	"fmt"
	"math/rand"
	"testing"

	"bfc/internal/packet"
)

// denseTable is the layout the open-addressed index replaced, kept as the
// model FuzzFlowTable compares against: one int32 chain head per VFID of the
// space, the same slab, free chain and overflow cache.
type denseTable struct {
	bucketSize  int
	heads       []int32
	slab        []*Entry
	overflow    map[Key]*Entry
	overflowCap int
	active      int
	counts      insertCounts
	free        int32
}

func newDenseTable(numVFIDs, bucketSize, overflowCap int) *denseTable {
	return &denseTable{bucketSize: bucketSize, heads: make([]int32, numVFIDs), overflow: map[Key]*Entry{}, overflowCap: overflowCap}
}

func (t *denseTable) find(v packet.VFID, ingress, egress int) (*Entry, int) {
	depth := 0
	for i := t.heads[v]; i != 0; depth++ {
		e := t.slab[i-1]
		if e.Ingress == ingress && e.Egress == egress {
			return e, depth
		}
		i = e.next
	}
	return t.overflow[Key{VFID: v, Ingress: ingress, Egress: egress}], depth
}

func (t *denseTable) insert(v packet.VFID, ingress, egress int) (*Entry, InsertResult) {
	if _, depth := t.find(v, ingress, egress); depth < t.bucketSize {
		e := t.newEntry(v, ingress, egress)
		e.next, t.heads[v] = t.heads[v], e.slot
		return e, InsertedBucket
	}
	t.counts.bucketFull++
	if len(t.overflow) < t.overflowCap {
		e := t.newEntry(v, ingress, egress)
		e.inOverflow = true
		t.overflow[Key{VFID: v, Ingress: ingress, Egress: egress}] = e
		return e, InsertedOverflowCache
	}
	t.counts.cacheFull++
	return nil, InsertFailed
}

func (t *denseTable) newEntry(v packet.VFID, ingress, egress int) *Entry {
	var e *Entry
	if t.free != 0 {
		e = t.slab[t.free-1]
		t.free = e.next
	} else {
		e = new(Entry)
		t.slab = append(t.slab, e)
		e.slot = int32(len(t.slab))
	}
	*e = Entry{VFID: v, Ingress: ingress, Egress: egress, Queue: -1, slot: e.slot}
	t.active++
	t.counts.inserts++
	t.counts.maxActive = max(t.counts.maxActive, t.active)
	return e
}

func (t *denseTable) remove(e *Entry) {
	if e.inOverflow {
		delete(t.overflow, Key{VFID: e.VFID, Ingress: e.Ingress, Egress: e.Egress})
	} else {
		link := &t.heads[e.VFID]
		for t.slab[*link-1] != e {
			link = &t.slab[*link-1].next
		}
		*link = e.next
	}
	t.active--
	e.next, t.free = t.free, e.slot
}

// FuzzFlowTable drives a table and the dense model with the same Insert,
// Lookup and Remove calls over a small VFID space — VFID space 1–32, bucket
// size 1–4 and overflow cap 0–3 from the first bytes, then per byte pair a
// Lookup of one key and an Insert or Remove of it, at most maxOps pairs so an
// input's cost stays bounded; inserts and removes are equally likely, so
// buckets empty and the index frees cells — and requires the same
// InsertResult, the same entry (every field, slab slot and chain link
// included, and a removed entry recycled exactly when the model recycles its
// twin), the same Active, the same tallies of Insert's results and of
// Active's high-water against the model's own counters, the same answer to every lookup, and a
// clean Check after every call.
func FuzzFlowTable(f *testing.F) {
	const maxOps = 512
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 3+2*maxOps)
		rand.New(rand.NewSource(seed)).Read(data)
		data[0], data[1], data[2] = byte(seed*5), byte(seed), byte(seed)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		data = data[:min(len(data), 3+2*maxOps)]
		numVFIDs, bucketSize, overflowCap := 1+int(data[0]%32), 1+int(data[1]%4), int(data[2]%4)
		tbl, model := newTable(numVFIDs, bucketSize, overflowCap), newDenseTable(numVFIDs, bucketSize, overflowCap)
		var counts insertCounts        // the table's Insert results and Active high-water
		twin := map[*Entry]*Entry{}    // table entry -> the model's entry for the same slot
		modelSeen := map[*Entry]bool{} // model entries that have a twin
		same := func(got, want *Entry) bool {
			return got == nil && want == nil || got != nil && want != nil && twin[got] == want && *got == *want
		}
		for i := 3; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			k := Key{VFID: packet.VFID(int(op>>1) % numVFIDs), Ingress: int(arg % 2), Egress: int(arg / 2 % 2)}
			got := tbl.Lookup(k.VFID, k.Ingress, k.Egress)
			want, _ := model.find(k.VFID, k.Ingress, k.Egress)
			if !same(got, want) {
				t.Fatalf("op %d: Lookup(%+v) = %+v, model %+v", i, k, got, want)
			}
			what := fmt.Sprintf("op %d: lookup %+v", i, k)
			switch {
			case op&1 == 0 && want == nil:
				e, res := tbl.Insert(k.VFID, k.Ingress, k.Egress)
				counts.note(res, tbl.Active())
				m, mres := model.insert(k.VFID, k.Ingress, k.Egress)
				what = fmt.Sprintf("op %d: insert %+v = %v", i, k, res)
				if res != mres || (e == nil) != (m == nil) {
					t.Fatalf("%s, model %v", what, mres)
				}
				if e != nil {
					if prev, ok := twin[e]; ok != modelSeen[m] || ok && prev != m {
						t.Fatalf("%s: table recycled %p, model %p", what, e, m)
					}
					twin[e], modelSeen[m] = m, true
					if *e != *m {
						t.Fatalf("%s: entry %+v, model %+v", what, *e, *m)
					}
				}
			case op&1 == 1 && want != nil:
				tbl.Remove(got)
				model.remove(want)
				what = fmt.Sprintf("op %d: remove %+v", i, k)
			}
			if tbl.Active() != model.active || counts != model.counts {
				t.Fatalf("%s: active %d counts %+v, model %d %+v", what, tbl.Active(), counts, model.active, model.counts)
			}
			if err := tbl.Check(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for v := 0; v < numVFIDs; v++ {
				for port := 0; port < 4; port++ {
					in, out := port%2, port/2
					got := tbl.Lookup(packet.VFID(v), in, out)
					want, _ := model.find(packet.VFID(v), in, out)
					if !same(got, want) {
						t.Fatalf("%s: then Lookup(%d, %d, %d) = %+v, model %+v", what, v, in, out, got, want)
					}
				}
			}
		}
	})
}
