package fleet

import (
	"math"
	"testing"
	"time"
)

// TestLedgerEWMA pins the smoothing math: the first batch seeds the estimate,
// later batches blend at alpha, and the batch counter tracks observations.
func TestLedgerEWMA(t *testing.T) {
	l := NewLedger(0.5)

	// 10 jobs in 1s = 10 jobs/s seeds the estimate.
	tp := l.Observe("w1", 10, time.Second)
	if tp.JobsPerSec != 10 {
		t.Fatalf("first batch jobs/s = %v, want 10 (seed, not blend)", tp.JobsPerSec)
	}
	if tp.Batches != 1 {
		t.Fatalf("batches = %d, want 1", tp.Batches)
	}

	// 20 jobs/s instantaneous blends: 0.5*20 + 0.5*10 = 15.
	tp = l.Observe("w1", 20, time.Second)
	if math.Abs(tp.JobsPerSec-15) > 1e-9 {
		t.Fatalf("blended jobs/s = %v, want 15", tp.JobsPerSec)
	}

	// A zero-duration batch clamps rather than dividing by zero.
	tp = l.Observe("w1", 1, 0)
	if math.IsInf(tp.JobsPerSec, 0) || math.IsNaN(tp.JobsPerSec) {
		t.Fatalf("instant batch produced %v", tp.JobsPerSec)
	}

	// Workers are independent.
	if _, ok := l.Snapshot("w2"); ok {
		t.Fatal("never-observed worker has a snapshot")
	}
}

// TestLedgerPercentiles feeds a known latency spread and checks the
// nearest-rank percentiles over the ring.
func TestLedgerPercentiles(t *testing.T) {
	l := NewLedger(0)
	// 100 batches at 1ms..100ms.
	var tp WorkerThroughput
	for i := 1; i <= 100; i++ {
		tp = l.Observe("w", 1, time.Duration(i)*time.Millisecond)
	}
	if tp.BatchP50MS != 50 || tp.BatchP90MS != 90 || tp.BatchP99MS != 99 {
		t.Fatalf("percentiles p50=%v p90=%v p99=%v, want 50/90/99",
			tp.BatchP50MS, tp.BatchP90MS, tp.BatchP99MS)
	}

	// Nearest rank is the ceil(p·N/100)-th value, never a rounded-down rank.
	for _, c := range []struct {
		n        int
		p90, p99 float64
	}{
		{6, 6, 6},
		{16, 15, 16},
		{60, 54, 60},
	} {
		small := NewLedger(0)
		for i := 1; i <= c.n; i++ {
			tp = small.Observe("w", 1, time.Duration(i)*time.Millisecond)
		}
		if tp.BatchP90MS != c.p90 || tp.BatchP99MS != c.p99 {
			t.Errorf("N=%d: p90=%v p99=%v, want %v/%v", c.n, tp.BatchP90MS, tp.BatchP99MS, c.p90, c.p99)
		}
	}

	// The ring holds ledgerLatencyWindow entries; overflow overwrites the
	// oldest, so after 128 more batches at a flat 200ms the old spread is gone.
	for i := 0; i < ledgerLatencyWindow; i++ {
		tp = l.Observe("w", 1, 200*time.Millisecond)
	}
	if tp.BatchP50MS != 200 || tp.BatchP99MS != 200 {
		t.Fatalf("ring did not age out old latencies: p50=%v p99=%v", tp.BatchP50MS, tp.BatchP99MS)
	}
}

// TestLedgerEvict checks dead-worker eviction: the profile disappears and a
// returning worker starts clean (a restart makes old history stale).
func TestLedgerEvict(t *testing.T) {
	l := NewLedger(0)
	l.Observe("w", 50, time.Second)
	if _, ok := l.Snapshot("w"); !ok {
		t.Fatal("observed worker missing")
	}
	l.Evict("w")
	if _, ok := l.Snapshot("w"); ok {
		t.Fatal("evicted worker still has a profile")
	}
	l.Evict("w") // absent eviction is a no-op

	tp := l.Observe("w", 2, time.Second)
	if tp.JobsPerSec != 2 || tp.Batches != 1 {
		t.Fatalf("returning worker inherited stale state: %+v", tp)
	}
}

// TestLedgerAlphaDefault checks the constructor guardrails.
func TestLedgerAlphaDefault(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		if l := NewLedger(alpha); l.alpha != DefaultLedgerAlpha {
			t.Errorf("NewLedger(%v).alpha = %v, want default %v", alpha, l.alpha, DefaultLedgerAlpha)
		}
	}
	if l := NewLedger(1); l.alpha != 1 {
		t.Errorf("NewLedger(1).alpha = %v, want 1 (no smoothing is a valid choice)", l.alpha)
	}
}
