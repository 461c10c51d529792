package sim

import (
	"testing"

	"bfc/internal/eventsim"
	"bfc/internal/units"
)

// BenchmarkShardMerge times the coordinator's per-step stream merge —
// stream.merge, which runSharded calls after every barrier step — over 8
// per-shard key-sorted completion buffers of 2048 records each, far more than
// one step of a full-load 1024-host run buffers. On a whole run it is part of
// bench/'s fattree1024_shards2.
func BenchmarkShardMerge(b *testing.B) {
	const S, per = 8, 2048
	bufs := make([][]keyed[fctRec], S)
	var n int
	var first units.Time
	fcts := stream[fctRec]{emit: func(c *fctRec) {
		if n == 0 {
			first = c.fct
		}
		n++
	}}
	for s := range bufs {
		recs := make([]keyed[fctRec], per)
		for i := range recs {
			// Interleaved instants across shards, each shard's buffer sorted —
			// every record's shard differs from the one before it.
			at := units.Time(i*S + s)
			k := eventsim.Key{At: at, Tag: uint64(s)}
			k.Chain[0] = at - 1
			recs[i] = keyed[fctRec]{key: k, v: fctRec{size: 1000, fct: units.Time(i + 1), ideal: 1}}
		}
		bufs[s] = recs
		fcts.add(&bufs[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range bufs {
			bufs[s] = bufs[s][:per] // merge emptied it
		}
		n = 0
		fcts.merge()
		if n != S*per || first != 1 {
			b.Fatal("merge corrupted the record stream")
		}
	}
}
