package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"bfc/internal/harness"
	"bfc/internal/service"
	"bfc/internal/telemetry"
)

// maxWorkers bounds the registry; a fleet larger than this is a typo in an
// announce loop, not a deployment.
const maxWorkers = 256

// deadAfterFails is how many consecutive failed probes or batch RPCs mark a
// worker dead. One flaky heartbeat must not eject a worker mid-suite.
const deadAfterFails = 3

// Config configures a coordinator.
type Config struct {
	// Store is the coordinator's own result store, merged into the fleet-wide
	// manifest ahead of every worker's (the coordinator is authoritative).
	// Required for Routes; Dispatch itself never touches it — the service
	// tier already satisfied every locally-cached job before dispatching.
	Store *harness.Store
	// Workers statically seeds the registry with worker base URLs; more can
	// register dynamically via POST /api/v1/fleet/register.
	Workers []string
	// BatchJobs bounds a scattered batch's size in jobs (default 4). A
	// dispatch of n jobs starts from ceil(n/BatchJobs) batches and rounds that
	// up to a multiple of the live workers, so every worker gets work; see
	// planBatches. Smaller batches lose less work to a dying worker; larger
	// ones amortize recompilation.
	BatchJobs int
	// InflightPerWorker caps concurrently outstanding batches per worker
	// (default 2): one executing, one queued behind it.
	InflightPerWorker int
	// BatchTimeout bounds one batch RPC (default 2m). A batch that misses it
	// is retried, elsewhere if possible.
	BatchTimeout time.Duration
	// HeartbeatInterval paces worker liveness probes (default 5s).
	HeartbeatInterval time.Duration
	// MaxAttempts is the remote attempt budget per batch before the
	// coordinator gives it back to the submitting daemon's own pool (default
	// 3).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the retry schedule (defaults 250ms / 5s);
	// see Backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Registry receives the bfcd_fleet_* metric families (a private registry
	// when nil).
	Registry *telemetry.Registry
	// Logger, when set, records registration, heartbeats, and every scatter,
	// retry, re-scatter and local fallback, per batch.
	Logger *slog.Logger
}

// workerRef is one registered worker as the coordinator tracks it.
type workerRef struct {
	url    string
	client *Client

	mu          sync.Mutex
	alive       bool
	lastSeen    time.Time
	consecFails int
	inflight    int
	batches     uint64
	jobs        uint64
	failures    uint64
}

// noteSuccess records a successful probe or batch.
func (w *workerRef) noteSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.alive = true
	w.lastSeen = time.Now()
	w.consecFails = 0
}

// noteFailure records a failed probe or batch; died reports a live→dead
// transition. hard kills the worker immediately (version drift).
func (w *workerRef) noteFailure(hard bool) (died bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.consecFails++
	w.failures++
	if w.alive && (hard || w.consecFails >= deadAfterFails) {
		w.alive = false
		return true
	}
	return false
}

func (w *workerRef) isAlive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alive
}

func (w *workerRef) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	lastSeen := int64(-1)
	if !w.lastSeen.IsZero() {
		lastSeen = time.Since(w.lastSeen).Milliseconds()
	}
	return WorkerStatus{
		URL: w.url, Alive: w.alive, LastSeenMS: lastSeen,
		Batches: w.batches, Jobs: w.jobs, Failures: w.failures,
	}
}

// Coordinator scatters compiled suites across registered workers and merges
// the records back in deterministic job order. It implements
// service.Dispatcher, and executes nothing itself: a batch no worker can take
// goes to the harness.Pool its caller passed to Dispatch.
type Coordinator struct {
	cfg     Config
	metrics *coordMetrics
	// ledger holds per-worker throughput estimates for the daemon's lifetime
	// (across suites), not per dispatch.
	ledger *Ledger

	mu      sync.Mutex
	workers map[string]*workerRef

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator, seeds the static workers (optimistic:
// eligible for scatter before their first heartbeat), and starts the
// heartbeat loop. Close releases it.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.BatchJobs <= 0 {
		cfg.BatchJobs = 4
	}
	if cfg.InflightPerWorker <= 0 {
		cfg.InflightPerWorker = 2
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = 2 * time.Minute
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 250 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	c := &Coordinator{
		cfg:     cfg,
		metrics: newCoordMetrics(cfg.Registry),
		ledger:  NewLedger(0),
		workers: map[string]*workerRef{},
		stop:    make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		if _, err := c.AddWorker(u); err != nil {
			return nil, err
		}
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Close stops the heartbeat loop. In-flight Dispatch calls are owned by the
// service tier, which cancels them (Service.Close) before the coordinator is
// closed — the graceful-drain ordering cmd/bfcd follows.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

func (c *Coordinator) log(msg string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Info(msg, args...)
	}
}

// AddWorker registers a worker base URL (idempotent).
func (c *Coordinator) AddWorker(base string) (*workerRef, error) {
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("fleet: invalid worker URL %q", base)
	}
	key := strings.TrimRight(base, "/")
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[key]; ok {
		return w, nil
	}
	if len(c.workers) >= maxWorkers {
		return nil, fmt.Errorf("fleet: worker registry full (%d)", maxWorkers)
	}
	w := &workerRef{
		url:    key,
		client: NewClient(key, c.cfg.BatchTimeout),
		alive:  true, // optimistic until heartbeats say otherwise
	}
	c.workers[key] = w
	c.metrics.workers.Set(int64(len(c.workers)))
	c.log("fleet worker registered", "worker", key, "workers", len(c.workers))
	return w, nil
}

// snapshot returns the registered workers, sorted by URL for stable status
// output and deterministic scatter tie-breaking.
func (c *Coordinator) snapshot() []*workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*workerRef, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

func (c *Coordinator) liveWorkers() []*workerRef {
	var out []*workerRef
	for _, w := range c.snapshot() {
		if w.isAlive() {
			out = append(out, w)
		}
	}
	return out
}

// pickWorker selects the least-loaded live worker with in-flight headroom;
// anyAlive distinguishes "all busy" (wait) from "fleet dead" (fall back to
// the local pool).
func (c *Coordinator) pickWorker() (best *workerRef, anyAlive bool) {
	bestLoad := 0
	for _, w := range c.snapshot() {
		w.mu.Lock()
		alive, load := w.alive, w.inflight
		w.mu.Unlock()
		if !alive {
			continue
		}
		anyAlive = true
		if load >= c.cfg.InflightPerWorker {
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	return best, anyAlive
}

// heartbeatLoop probes every worker once per interval until Close.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.heartbeat()
		}
	}
}

func (c *Coordinator) heartbeat() {
	for _, w := range c.snapshot() {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatInterval)
		_, err := w.client.Ping(ctx)
		cancel()
		if err != nil {
			c.metrics.heartbeatFails.Inc()
			if w.noteFailure(false) {
				c.evictThroughput(w.url)
				c.log("fleet worker died", "worker", w.url)
			}
			continue
		}
		if !w.isAlive() {
			c.log("fleet worker recovered", "worker", w.url)
		}
		w.noteSuccess()
	}
	c.metrics.workersAlive.Set(int64(len(c.liveWorkers())))
}

// Status reports the coordinator's registry and scatter counters.
func (c *Coordinator) Status() *Status {
	st := &Status{
		Mode:             "coordinator",
		Workers:          []WorkerStatus{},
		BatchesScattered: c.metrics.scattered.Value(),
		BatchesRetried:   c.metrics.retried.Value(),
		BatchesLocal:     c.metrics.local.Value(),
		JobsRemote:       c.metrics.jobsRemote.Value(),
		JobsDeduped:      c.metrics.jobsDeduped.Value(),
	}
	for _, w := range c.snapshot() {
		ws := w.status()
		if tp, ok := c.ledger.Snapshot(w.url); ok {
			ws.Throughput = &tp
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}

// evictThroughput drops a dead worker's ledger profile and /metrics series: a
// restarted worker's old estimate is stale, not history.
func (c *Coordinator) evictThroughput(worker string) {
	c.ledger.Evict(worker)
	c.metrics.workerThroughput.Delete(worker)
}

// Routes registers the coordinator's fleet endpoints on a mux; pass it to
// service.NewHandler as an extra.
func (c *Coordinator) Routes() func(*http.ServeMux) {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("GET "+pathStatus, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, c.Status())
		})
		mux.HandleFunc("POST "+pathRegister, func(w http.ResponseWriter, r *http.Request) {
			req := &RegisterRequest{}
			if err := decodeJSON(w, r, req); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			if _, err := c.AddWorker(req.URL); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "registered"})
		})
		mux.HandleFunc("GET "+pathManifest, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, c.FleetManifest(r.Context()))
		})
	}
}

// FleetManifest is the fleet-wide view of completed work: the union of the
// coordinator's own store manifest (authoritative, listed first) and every
// live worker's, deduplicated by content hash. Unreachable workers are
// skipped — the manifest is a dedup accelerator, not a source of truth.
func (c *Coordinator) FleetManifest(ctx context.Context) []harness.ManifestEntry {
	live := c.liveWorkers()
	lists := make([][]harness.ManifestEntry, 0, 1+len(live))
	if c.cfg.Store != nil {
		if own, err := c.cfg.Store.List(); err == nil {
			lists = append(lists, own)
		}
	}
	for _, w := range live {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.HeartbeatInterval)
		entries, err := w.client.Manifest(cctx)
		cancel()
		if err != nil {
			continue
		}
		lists = append(lists, entries)
	}
	return harness.MergeManifests(lists...)
}

// batchState tracks one scattered batch through retries.
type batchState struct {
	id     string
	idxs   []int    // job indices into cs.Jobs
	hashes []string // content hashes, parallel to idxs
	// attempts counts remote launches; lastWorker is where the previous one
	// went, so a retry landing elsewhere is visible as a re-scatter.
	attempts   int
	lastWorker string
	// ready re-enqueues the batch into its dispatch's scatter loop after a
	// backoff pause.
	ready chan<- *batchState
}

// batchDone is one completed (or failed) batch attempt.
type batchDone struct {
	b      *batchState
	w      *workerRef // nil for a batch the local pool ran
	recs   []*harness.Record
	cached map[string]bool // hashes the worker served from its store
	err    error
	took   time.Duration
}

// Dispatch implements service.Dispatcher: it satisfies pending jobs from the
// fleet-wide manifest where possible, scatters the rest across live workers
// in the batches planBatches deals, and feeds every record to sink; a batch it
// cannot place on a worker it dispatches on local, the submitting daemon's
// pool, whose workers deliver to the same sink themselves. Records reach the
// sink exactly once per job; the service assembles them in job order, so the
// merged suite stream is byte-identical to a serial local run.
func (c *Coordinator) Dispatch(ctx context.Context, cs *service.CompiledSuite, pending []int, sink harness.Sink, local *harness.Pool) error {
	remaining := c.dedup(ctx, cs, pending, sink)
	if len(remaining) == 0 {
		return ctx.Err()
	}

	// Plan the batches over the jobs the fleet has not yet computed.
	live := len(c.liveWorkers())
	plan := planBatches(remaining, c.cfg.BatchJobs, live)
	batches := make([]*batchState, len(plan))
	for i, idxs := range plan {
		b := &batchState{id: fmt.Sprintf("%s/b%03d", cs.Digest, i), idxs: idxs}
		for _, idx := range idxs {
			b.hashes = append(b.hashes, cs.Hashes[idx])
		}
		batches[i] = b
	}
	c.log("fleet scatter plan", "suite", cs.Digest, "jobs", len(remaining),
		"batches", len(batches), "workers", live)

	// Central scatter loop. Every batch is in exactly one place at a time —
	// waiting, in flight (remote or local), or parked on a backoff timer — so
	// the buffered channels (capacity = batch count) make every producer send
	// non-blocking even after an early return, and no goroutine leaks.
	results := make(chan *batchDone, len(batches))
	ready := make(chan *batchState, len(batches))
	for _, b := range batches {
		b.ready = ready
	}
	waiting := batches
	done := 0
	for done < len(batches) {
		// Launch everything launchable.
		var parked []*batchState
		for _, b := range waiting {
			w, anyAlive := c.pickWorker()
			switch {
			case w != nil:
				c.launchRemote(ctx, cs, b, w, results)
			case anyAlive:
				parked = append(parked, b) // capacity frees when a result lands
			default:
				c.launchLocal(ctx, cs, b, sink, local, results, "no live workers")
			}
		}
		waiting = parked

		// In-flight caps are per worker, not per dispatch: the capacity that
		// parked these batches may belong to a concurrent suite's dispatch,
		// whose results land on *its* channels, not ours. Poll while parked so
		// a capacity release elsewhere can never strand this dispatch.
		var poll <-chan time.Time
		if len(waiting) > 0 {
			poll = time.After(c.cfg.BackoffBase)
		}

		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-poll:
		case b := <-ready:
			waiting = append(waiting, b)
		case d := <-results:
			finished, err := c.handleResult(ctx, cs, d, sink, local, results)
			if err != nil {
				return err
			}
			if finished {
				done++
			}
		}
	}
	return ctx.Err()
}

// planBatches splits remaining into batches of at most batchJobs jobs. The
// batch count starts at ceil(n/batchJobs) and, with live workers, is rounded
// up to a multiple of live (capped at n), so every worker gets a batch and
// the batch sizes differ by at most one. Job k goes to batch k mod count:
// suites compile in sweep order, so dealing rather than cutting contiguous
// chunks spreads every sweep axis, and its cost, across the batches.
func planBatches(remaining []int, batchJobs, live int) [][]int {
	n := len(remaining)
	nb := (n + batchJobs - 1) / batchJobs
	if live > 0 {
		nb = min((nb+live-1)/live*live, n)
	}
	batches := make([][]int, nb)
	for k, idx := range remaining {
		batches[k%nb] = append(batches[k%nb], idx)
	}
	return batches
}

// dedup is the scatter prologue: ask every live worker which pending hashes
// its store already holds, then satisfy those jobs by fetching the records —
// zero simulation anywhere in the fleet. Any failure just leaves the job for
// execution.
func (c *Coordinator) dedup(ctx context.Context, cs *service.CompiledSuite, pending []int, sink harness.Sink) []int {
	workers := c.liveWorkers()
	if len(workers) == 0 {
		return pending
	}
	hashes := make([]string, len(pending))
	for i, idx := range pending {
		hashes[i] = cs.Hashes[idx]
	}
	owner := map[string]*workerRef{}
	for _, w := range workers {
		for start := 0; start < len(hashes); start += maxHaveHashes {
			end := min(start+maxHaveHashes, len(hashes))
			cctx, cancel := context.WithTimeout(ctx, c.cfg.BatchTimeout)
			have, err := w.client.Have(cctx, hashes[start:end])
			cancel()
			if err != nil {
				w.noteFailure(false)
				break
			}
			for _, h := range have {
				if owner[h] == nil {
					owner[h] = w
				}
			}
		}
	}
	var remaining []int
	for i, idx := range pending {
		w := owner[hashes[i]]
		if w == nil || ctx.Err() != nil {
			remaining = append(remaining, idx)
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, c.cfg.BatchTimeout)
		rec, err := w.client.Record(cctx, hashes[i])
		cancel()
		if err != nil || rec.Hash != hashes[i] ||
			sink(idx, rec, harness.Origin{Cached: true, Where: w.url}) != nil {
			remaining = append(remaining, idx)
			continue
		}
		c.metrics.jobsDeduped.Inc()
	}
	if deduped := len(pending) - len(remaining); deduped > 0 {
		c.log("fleet dedup", "suite", cs.Digest, "deduped", deduped, "remaining", len(remaining))
	}
	return remaining
}

// launchRemote sends one batch to a worker in a goroutine; the outcome lands
// on results.
func (c *Coordinator) launchRemote(ctx context.Context, cs *service.CompiledSuite, b *batchState, w *workerRef, results chan<- *batchDone) {
	w.mu.Lock()
	w.inflight++
	w.mu.Unlock()
	b.attempts++
	c.metrics.scattered.Inc()
	if b.lastWorker != "" && b.lastWorker != w.url {
		c.metrics.rescattered.Inc()
		c.log("fleet batch re-scattered", "batch", b.id, "from", b.lastWorker, "to", w.url)
	} else {
		c.log("fleet batch scattered", "batch", b.id, "worker", w.url,
			"jobs", len(b.idxs), "attempt", b.attempts)
	}
	b.lastWorker = w.url
	req := &ExecuteRequest{Batch: b.id, Suite: cs.Spec, Hashes: b.hashes}
	go func() {
		start := time.Now()
		cctx, cancel := context.WithTimeout(ctx, c.cfg.BatchTimeout)
		defer cancel()
		resp, err := w.client.Execute(cctx, req)
		d := &batchDone{b: b, w: w, err: err, took: time.Since(start)}
		if err == nil {
			for i, rec := range resp.Records {
				if rec == nil || rec.Hash != b.hashes[i] {
					d.err = fmt.Errorf("%w: batch %s: record %d does not match requested hash", ErrDrift, b.id, i)
					break
				}
			}
			d.recs = resp.Records
			d.cached = map[string]bool{}
			for _, h := range resp.CachedHashes {
				d.cached[h] = true
			}
		}
		results <- d
	}()
}

// launchLocal gives one batch to the submitting daemon's pool — the degraded
// mode that keeps a suite finishing when the fleet cannot. The pool's workers
// run the jobs and deliver to sink; the goroutine here only waits for them.
func (c *Coordinator) launchLocal(ctx context.Context, cs *service.CompiledSuite, b *batchState, sink harness.Sink, local *harness.Pool, results chan<- *batchDone, why string) {
	c.metrics.local.Inc()
	c.log("fleet batch running locally", "batch", b.id, "jobs", len(b.idxs), "reason", why)
	go func() {
		start := time.Now()
		err := local.Dispatch(ctx, cs.Jobs, b.idxs, sink)
		results <- &batchDone{b: b, err: err, took: time.Since(start)}
	}()
}

// handleResult folds one batch outcome into the dispatch: deliver a worker's
// records on success (a local batch's were delivered by the pool), schedule a
// retry / local fallback on transient failure, abort the suite on
// deterministic failure.
func (c *Coordinator) handleResult(ctx context.Context, cs *service.CompiledSuite, d *batchDone, sink harness.Sink, local *harness.Pool, results chan<- *batchDone) (finished bool, err error) {
	b := d.b
	if d.w != nil {
		d.w.mu.Lock()
		d.w.inflight--
		d.w.mu.Unlock()
	}
	if d.err == nil {
		if d.w != nil {
			for i, idx := range b.idxs {
				origin := harness.Origin{Cached: d.cached[b.hashes[i]], Where: d.w.url}
				if err := sink(idx, d.recs[i], origin); err != nil {
					return false, err
				}
				if origin.Cached {
					c.metrics.jobsDeduped.Inc()
				} else {
					c.metrics.jobsRemote.Inc()
				}
			}
			d.w.noteSuccess()
			d.w.mu.Lock()
			d.w.batches++
			d.w.jobs += uint64(len(b.idxs))
			d.w.mu.Unlock()
			c.metrics.batchSeconds.Observe(d.took.Seconds())
			tp := c.ledger.Observe(d.w.url, len(b.idxs), d.took)
			c.metrics.workerThroughput.With(d.w.url).Set(tp.JobsPerSec)
		}
		c.log("fleet batch done", "batch", b.id, "local", d.w == nil,
			"elapsed", d.took.Round(time.Millisecond).String())
		return true, nil
	}

	// Failures. A dispatch that was cancelled fails no job; local execution
	// and worker-reported job failures are deterministic — retrying
	// reproduces them — so they end the suite.
	if ctx.Err() != nil {
		return false, ctx.Err()
	}
	if d.w == nil {
		return false, fmt.Errorf("fleet: batch %s failed locally: %w", b.id, d.err)
	}
	if errors.Is(d.err, ErrJobFailed) {
		return false, fmt.Errorf("fleet: batch %s: %w", b.id, d.err)
	}
	hard := errors.Is(d.err, ErrDrift) // wrong code version: stop using this worker
	if d.w.noteFailure(hard) {
		c.evictThroughput(d.w.url)
		c.log("fleet worker died", "worker", d.w.url, "batch", b.id, "error", d.err.Error())
	}
	c.metrics.workersAlive.Set(int64(len(c.liveWorkers())))
	if b.attempts >= c.cfg.MaxAttempts {
		c.launchLocal(ctx, cs, b, sink, local, results, fmt.Sprintf("%d remote attempts failed", b.attempts))
		return false, nil
	}
	delay := Backoff(b.attempts-1, c.cfg.BackoffBase, c.cfg.BackoffMax, Seed(b.id))
	c.metrics.retried.Inc()
	c.log("fleet batch retry scheduled", "batch", b.id, "attempt", b.attempts,
		"delay", delay.Round(time.Millisecond).String(), "error", d.err.Error())
	time.AfterFunc(delay, func() { b.ready <- b }) // never blocks: one slot per batch
	return false, nil
}
