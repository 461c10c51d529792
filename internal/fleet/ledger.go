package fleet

import (
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultLedgerAlpha is the EWMA smoothing factor for per-worker throughput:
// each observed batch contributes 30% and history 70%, so the estimate tracks
// a worker slowing down within a few batches without whipsawing on one
// outlier.
const DefaultLedgerAlpha = 0.3

// ledgerLatencyWindow bounds the per-worker batch-latency ring the
// percentiles are computed over.
const ledgerLatencyWindow = 128

// WorkerThroughput is one worker's observed execution profile: the EWMA
// jobs/s estimate and nearest-rank percentiles over the recent batch
// latencies. It rides on WorkerStatus (fleet status API) and feeds the
// bfcd_fleet_worker_throughput metric family.
type WorkerThroughput struct {
	JobsPerSec float64 `json:"jobs_per_sec"`
	Batches    uint64  `json:"batches"`
	BatchP50MS float64 `json:"batch_p50_ms"`
	BatchP90MS float64 `json:"batch_p90_ms"`
	BatchP99MS float64 `json:"batch_p99_ms"`
}

// Ledger tracks observed per-worker throughput across suites. It lives on the
// coordinator (not on any dispatch), so estimates persist as long as the
// daemon does — the signal the ROADMAP's throughput-weighted placement needs.
// A worker that dies is evicted: if it comes back it starts clean, because a
// restarted worker's old profile is stale, not history.
type Ledger struct {
	mu      sync.Mutex
	alpha   float64
	workers map[string]*workerLedger
}

type workerLedger struct {
	jobsPerSec float64
	batches    uint64
	latMS      []float64 // ring of recent batch latencies, ms
	next       int
}

// NewLedger builds an empty ledger (alpha <= 0 selects DefaultLedgerAlpha).
func NewLedger(alpha float64) *Ledger {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultLedgerAlpha
	}
	return &Ledger{alpha: alpha, workers: map[string]*workerLedger{}}
}

// Observe folds one successful batch (jobs executed, round-trip latency) into
// a worker's profile and returns the updated snapshot.
func (l *Ledger) Observe(worker string, jobs int, took time.Duration) WorkerThroughput {
	secs := took.Seconds()
	if secs <= 0 {
		secs = 1e-9 // a clamped instant batch still counts
	}
	inst := float64(jobs) / secs

	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.workers[worker]
	if w == nil {
		w = &workerLedger{latMS: make([]float64, 0, ledgerLatencyWindow)}
		l.workers[worker] = w
	}
	if w.batches == 0 {
		w.jobsPerSec = inst
	} else {
		w.jobsPerSec = l.alpha*inst + (1-l.alpha)*w.jobsPerSec
	}
	w.batches++
	ms := took.Seconds() * 1e3
	if len(w.latMS) < ledgerLatencyWindow {
		w.latMS = append(w.latMS, ms)
	} else {
		w.latMS[w.next] = ms
		w.next++
		if w.next == ledgerLatencyWindow {
			w.next = 0
		}
	}
	return w.snapshot()
}

// Evict drops a worker's profile (dead or drifted worker). No-op if absent.
func (l *Ledger) Evict(worker string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.workers, worker)
}

// Snapshot returns a worker's current profile; ok is false when the ledger
// has never observed (or has evicted) the worker.
func (l *Ledger) Snapshot(worker string) (WorkerThroughput, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.workers[worker]
	if w == nil {
		return WorkerThroughput{}, false
	}
	return w.snapshot(), true
}

// snapshot renders the profile; caller holds the ledger lock.
func (w *workerLedger) snapshot() WorkerThroughput {
	lats := make([]float64, len(w.latMS))
	copy(lats, w.latMS)
	sort.Float64s(lats)
	return WorkerThroughput{
		JobsPerSec: w.jobsPerSec,
		Batches:    w.batches,
		BatchP50MS: nearestRank(lats, 50),
		BatchP90MS: nearestRank(lats, 90),
		BatchP99MS: nearestRank(lats, 99),
	}
}

// nearestRank is the nearest-rank percentile over a sorted sample: the
// ceil(p·N/100)-th smallest value.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1 // p·N is exact, so a whole rank stays whole
	return sorted[max(0, min(rank, len(sorted)-1))]
}
