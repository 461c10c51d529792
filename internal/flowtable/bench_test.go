package flowtable

import (
	"fmt"
	"testing"

	"bfc/internal/packet"
)

var benchSink *Entry

// BenchmarkFlowTableNew measures constructing the paper-sized table, which
// every BFC switch of a run does once before any flow arrives (264 times on
// the 1024-host fat-tree). B/op is what an idle table holds: the struct, the
// overflow map and the index's first eight cells, whatever the VFID space.
func BenchmarkFlowTableNew(b *testing.B) {
	b.ReportAllocs()
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = New(DefaultNumVFIDs)
	}
	if tbl.numVFIDs != DefaultNumVFIDs {
		b.Fatal("wrong size")
	}
}

// churnLoop is one flow activation as the engine drives it — Insert, eight
// Lookups spread over the bucket's entries, Remove — at a bucket depth (the
// churned entry plus residents on the same VFID), over 1024 VFIDs so the index
// is not one hot cache line. cacheEntry first puts one unrelated entry in the
// overflow cache (every miss in the bucket, Insert's duplicate check included,
// then consults the map); residents == defaultBucketSize fills the bucket so
// the churned entry itself lives in the cache. It uses only the public API, so
// it runs unchanged on older layouts; it is the per-packet cost of the table
// next to the benchmark's switchsim.bfc_pkt_ns rung.
func churnLoop(tb testing.TB, residents int, cacheEntry bool) func(n int) {
	const window, lookups = 1024, 8
	tbl := New(DefaultNumVFIDs)
	for v := 0; v < window; v++ {
		for in := 0; in < residents; in++ {
			tbl.Insert(packet.VFID(v), in, 0)
		}
	}
	if cacheEntry {
		for in := 0; in <= defaultBucketSize; in++ {
			tbl.Insert(window, in, 0)
		}
	}
	entries := residents + 1
	return func(n int) {
		for i := 0; i < n; i++ {
			v := packet.VFID(i % window)
			e, res := tbl.Insert(v, residents, 0)
			if res == InsertFailed {
				tb.Fatal("insert failed")
			}
			for j := 0; j < lookups; j++ {
				benchSink = tbl.Lookup(v, j%entries, 0)
			}
			tbl.Remove(e)
		}
	}
}

type churnRow struct {
	name       string
	residents  int
	cacheEntry bool
}

// churnRows are BenchmarkFlowTableChurn's sub-benchmarks: every bucket depth,
// then the two overflow-cache cases.
func churnRows() []churnRow {
	var rows []churnRow
	for depth := 1; depth <= defaultBucketSize; depth++ {
		rows = append(rows, churnRow{fmt.Sprintf("depth=%d", depth), depth - 1, false})
	}
	return append(rows,
		churnRow{"depth=1/cache-nonempty", 0, true},
		churnRow{"depth=4/entry-in-cache", defaultBucketSize, false})
}

func BenchmarkFlowTableChurn(b *testing.B) {
	for _, r := range churnRows() {
		b.Run(r.name, func(b *testing.B) {
			loop := churnLoop(b, r.residents, r.cacheEntry)
			b.ReportAllocs()
			b.ResetTimer()
			loop(b.N)
		})
	}
}

// TestChurnSteadyStateAllocFree: two passes over the window allocate nothing
// on any row once AllocsPerRun's own warm-up call has grown the slab and the
// overflow map.
func TestChurnSteadyStateAllocFree(t *testing.T) {
	for _, r := range churnRows() {
		loop := churnLoop(t, r.residents, r.cacheEntry)
		if allocs := testing.AllocsPerRun(1, func() { loop(2048) }); allocs != 0 {
			t.Errorf("%s: %v allocations in 2048 steady-state activations, want 0", r.name, allocs)
		}
	}
}
