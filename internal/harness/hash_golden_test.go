package harness

import (
	"testing"

	"bfc/internal/sim"
)

// TestJobHashGolden pins the Job content-hash wire format. These hashes key
// artifact files, the service result cache and — since the fleet tier —
// cross-machine dedup: a coordinator asks workers "which of these hashes do
// you have" and trusts the answer without comparing record contents. If the
// hash algorithm drifts (field order, separators, truncation length, meta
// sorting), every store silently becomes a miss and mixed-version fleets
// re-execute or, worse, mis-attribute work. The recorded hashes change only
// with a sim.ModelVersion bump (re-record them then) or a deliberate
// wire-format change, which invalidates every existing store directory.
func TestJobHashGolden(t *testing.T) {
	golden := []struct {
		job  Job
		want string
	}{
		// The plain service/batch shapes.
		{Job{Name: "reduced/fig05a/scheme=BFC", Scheme: sim.SchemeBFC}, "9d52abac452ace66"},
		// The scheme participates in the hash.
		{Job{Name: "reduced/fig05a/scheme=BFC", Scheme: sim.SchemeDCQCN}, "96a9881aba9a2b17"},
		// Meta participates: the streaming-policy marker yields a new artifact.
		{Job{Name: "reduced/fig05a/scheme=BFC", Scheme: sim.SchemeBFC,
			Meta: map[string]string{"stats": "streaming"}}, "9e4c258102765c99"},
		// Multi-key meta hashes in sorted key order, not insertion order.
		{Job{Name: "full/fig08/fanin=64", Scheme: sim.SchemeDCQCNWin,
			Meta: map[string]string{"fanin": "64", "fig": "fig08"}}, "3b7d848b60b317b7"},
		{Job{Name: "j/meta-order", Scheme: sim.SchemeBFC,
			Meta: map[string]string{"a": "1", "b": "2", "c": "3"}}, "34fac07d3171968e"},
		// Degenerate and non-ASCII inputs are stable too.
		{Job{Name: "", Scheme: sim.SchemeBFC}, "6bd2f0857efa2dd1"},
		{Job{Name: "tiny/scenario/flap/scheme=HPCC", Scheme: sim.SchemeHPCC,
			Meta: map[string]string{"scenario_digest": "0123456789abcdef", "scale": "tiny"}}, "e6913547d3867b9a"},
		{Job{Name: "j/unicode/π=3.14159", Scheme: sim.SchemeBFC,
			Meta: map[string]string{"note": "ünïcode-μs"}}, "98a67defdfb884f7"},
		// Empty and nil meta hash identically.
		{Job{Name: "j/empty-meta", Scheme: sim.SchemeBFC, Meta: map[string]string{}}, "ef6d22822f9d8ff6"},
		{Job{Name: "j/empty-meta", Scheme: sim.SchemeBFC}, "ef6d22822f9d8ff6"},
	}
	for _, g := range golden {
		if got := g.job.Hash(); got != g.want {
			t.Errorf("Job hash drifted for %q/%v/%v: got %s, recorded %s\n"+
				"This breaks fleet-wide dedup and invalidates every existing store;\n"+
				"if the change is deliberate, re-record the golden hashes.", g.job.Name, g.job.Scheme, g.job.Meta, got, g.want)
		}
	}
	// Structural invariants independent of the recorded corpus.
	if h := (&Job{Name: "x", Scheme: sim.SchemeBFC}).Hash(); len(h) != 16 {
		t.Fatalf("hash length %d, want 16 hex characters", len(h))
	}
	// The meta key/value separators must keep ("ab"→"c") distinct from
	// ("a"→"bc"): a flattened encoding would let different jobs collide.
	a := Job{Name: "n", Scheme: sim.SchemeBFC, Meta: map[string]string{"ab": "c"}}
	b := Job{Name: "n", Scheme: sim.SchemeBFC, Meta: map[string]string{"a": "bc"}}
	if a.Hash() == b.Hash() {
		t.Fatal("meta separator ambiguity: distinct jobs share a hash")
	}
}
