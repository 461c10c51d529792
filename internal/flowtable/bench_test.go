package flowtable

import (
	"fmt"
	"testing"

	"bfc/internal/packet"
)

var benchSink *Entry

// BenchmarkFlowTableNew measures constructing the paper-sized table, which
// every BFC switch of a run does once before any flow arrives (264 times on
// the 1024-host fat-tree). B/op is the index the constructor clears and the
// collector then owns: 4 bytes per VFID (64 KB) plus the overflow map.
func BenchmarkFlowTableNew(b *testing.B) {
	b.ReportAllocs()
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = New(DefaultNumVFIDs, DefaultBucketSize, DefaultOverflowCap)
	}
	if tbl.NumVFIDs() != DefaultNumVFIDs {
		b.Fatal("wrong size")
	}
}

// BenchmarkFlowTableChurn measures one flow activation as the engine drives
// it — Insert, eight Lookups spread over the bucket's entries, Remove — per
// bucket depth (the churned entry plus depth-1 residents on the same VFID),
// over 1024 VFIDs so the index is not one hot cache line. The overflow rows
// repeat depth 1 with one unrelated entry in the overflow cache (every miss in
// the bucket, Insert's duplicate check included, then consults the map) and
// the case where the bucket is full and the churned entry itself lives in the
// cache. It uses only the public API, so it runs unchanged on older layouts;
// it is the per-packet cost of the table next to the benchmark's
// switchsim.bfc_pkt_ns rung.
func BenchmarkFlowTableChurn(b *testing.B) {
	const window, lookups = 1024, 8
	run := func(name string, residents int, cacheEntry bool) {
		b.Run(name, func(b *testing.B) {
			tbl := New(DefaultNumVFIDs, DefaultBucketSize, DefaultOverflowCap)
			for v := 0; v < window; v++ {
				for in := 0; in < residents; in++ {
					tbl.Insert(packet.VFID(v), in, 0)
				}
			}
			if cacheEntry {
				for in := 0; in <= DefaultBucketSize; in++ {
					tbl.Insert(window, in, 0)
				}
			}
			entries := residents + 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := packet.VFID(i % window)
				e, res := tbl.Insert(v, residents, 0)
				if res == InsertFailed {
					b.Fatal("insert failed")
				}
				for j := 0; j < lookups; j++ {
					benchSink = tbl.Lookup(v, j%entries, 0)
				}
				tbl.Remove(e)
			}
		})
	}
	for depth := 1; depth <= DefaultBucketSize; depth++ {
		run(fmt.Sprintf("depth=%d", depth), depth-1, false)
	}
	run("depth=1/cache-nonempty", 0, true)
	run("depth=4/entry-in-cache", DefaultBucketSize, false)
}
