package sim

import (
	"testing"

	"bfc/internal/eventsim"
	"bfc/internal/units"
)

// BenchmarkShardMerge times the coordinator's end-of-run completion merge —
// mergeFCT, the function runSharded calls — over 8 per-shard key-sorted FCT
// buffers (16k records each, the order of a full-load 1024-host run). The
// merge is the only O(flows log flows) step the sharded engine adds over the
// serial one. On a whole run it is part of bench/'s fattree1024_shards2.
func BenchmarkShardMerge(b *testing.B) {
	const S, per = 8, 16384
	shards := make([][]fctRec, S)
	for s := range shards {
		recs := make([]fctRec, per)
		for i := range recs {
			// Interleaved instants across shards, each shard's buffer sorted —
			// the worst case for a merge implemented as a global stable sort.
			at := units.Time(i*S + s)
			k := eventsim.Key{At: at, Tag: uint64(s)}
			k.Chain[0] = at - 1
			recs[i] = fctRec{key: k, size: 1000, fct: units.Time(i + 1), ideal: 1}
		}
		shards[s] = recs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := mergeFCT(shards)
		if len(recs) != S*per || recs[0].key.At != 0 {
			b.Fatal("merge corrupted the record stream")
		}
	}
}
