package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"bfc/internal/harness"
	"bfc/internal/telemetry"
)

// ExecutorConfig configures a worker-mode execution plane.
type ExecutorConfig struct {
	// Store persists completed records; it doubles as the worker's dedup cache
	// and its contribution to the fleet-wide manifest. Required.
	Store *harness.Store
	// Parallel bounds concurrently executing jobs across all in-flight
	// batches (default 1).
	Parallel int
	// Registry receives the bfcd_fleet_worker_* metric families (a private
	// registry when nil).
	Registry *telemetry.Registry
	// Logger, when set, records batch execution.
	Logger *slog.Logger
}

// Executor serves the worker side of the fleet API: it recompiles shipped
// suites, executes the requested jobs against its own store, and answers
// membership and record queries so coordinators can dedup against it.
type Executor struct {
	cfg     ExecutorConfig
	metrics *workerMetrics
	// pool executes the jobs of every in-flight batch, Parallel at a time.
	pool *harness.Pool
}

// NewExecutor builds a worker execution plane.
func NewExecutor(cfg ExecutorConfig) (*Executor, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: executor needs a store")
	}
	m := newWorkerMetrics(cfg.Registry)
	// The executor has a busy gauge but shows no queue length.
	pool := harness.NewPool(cfg.Parallel, m.busy, new(telemetry.Gauge))
	return &Executor{cfg: cfg, metrics: m, pool: pool}, nil
}

func (e *Executor) log(msg string, args ...any) {
	if e.cfg.Logger != nil {
		e.cfg.Logger.Info(msg, args...)
	}
}

// Status reports the executor's counters.
func (e *Executor) Status() *ExecutorStatus {
	return &ExecutorStatus{
		Batches:      e.metrics.batches.Value(),
		JobsExecuted: e.metrics.jobsExecuted.Value(),
		JobsCached:   e.metrics.jobsCached.Value(),
		Busy:         e.metrics.busy.Value(),
	}
}

// Routes registers the worker's fleet endpoints on a mux; pass it to
// service.NewHandler as an extra so the routes share request metrics and
// logging with the core API.
func (e *Executor) Routes() func(*http.ServeMux) {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("GET "+pathStatus, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, &Status{Mode: "worker", Worker: e.Status()})
		})
		mux.HandleFunc("POST "+pathHave, e.handleHave)
		mux.HandleFunc("GET "+pathRecord+"{hash}", e.handleRecord)
		mux.HandleFunc("GET "+pathManifest, func(w http.ResponseWriter, r *http.Request) {
			entries, err := e.cfg.Store.List()
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, entries)
		})
		mux.HandleFunc("POST "+pathExecute, e.handleExecute)
	}
}

func (e *Executor) handleHave(w http.ResponseWriter, r *http.Request) {
	req := &HaveRequest{}
	if err := decodeJSON(w, r, req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Hashes) > maxHaveHashes {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("fleet: %d hashes exceed the per-query limit %d", len(req.Hashes), maxHaveHashes))
		return
	}
	resp := &HaveResponse{Have: []string{}}
	for _, h := range req.Hashes {
		if e.cfg.Store.Has(h) {
			resp.Have = append(resp.Have, h)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (e *Executor) handleRecord(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	line, ok, err := e.cfg.Store.Read(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("fleet: no record for hash %q", hash))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(line)
}

func (e *Executor) handleExecute(w http.ResponseWriter, r *http.Request) {
	req := &ExecuteRequest{}
	if err := decodeJSON(w, r, req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Hashes) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fleet: batch %q has no jobs", req.Batch))
		return
	}
	resp, err := e.Execute(r.Context(), req)
	switch {
	case err == nil:
	case errors.Is(err, ErrDrift):
		httpError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrJobFailed):
		// Deterministic failure: tell the coordinator not to retry elsewhere.
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	case r.Context().Err() != nil:
		// Coordinator gave up (timeout, suite cancelled); nobody reads this.
		httpError(w, http.StatusServiceUnavailable, err)
		return
	default:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Execute recompiles the shipped suite, verifies the requested hashes against
// its own compilation, and produces one record per hash — from the store when
// already computed, by simulation on the executor's pool otherwise. Records
// come back in request order.
func (e *Executor) Execute(ctx context.Context, req *ExecuteRequest) (*ExecuteResponse, error) {
	cs, err := req.Suite.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: recompiling suite: %v", ErrDrift, err)
	}
	byHash := make(map[string]*harness.Job, len(cs.Jobs))
	for i := range cs.Jobs {
		byHash[cs.Hashes[i]] = &cs.Jobs[i]
	}
	start := time.Now()
	// The batch in request order, so a job's index is its response slot.
	batch := make([]harness.Job, len(req.Hashes))
	resp := &ExecuteResponse{Records: make([]*harness.Record, len(req.Hashes))}
	var pending []int
	for i, h := range req.Hashes {
		j, ok := byHash[h]
		if !ok {
			return nil, fmt.Errorf("%w: suite %q compiled no job with hash %s", ErrDrift, cs.Title, h)
		}
		batch[i] = *j
		// Store hit: an earlier batch (or a local batch run) already computed
		// this job; serve the artifact instead of re-simulating.
		if rec, ok, err := e.cfg.Store.Get(h); err == nil && ok {
			resp.Records[i] = rec
			resp.CachedHashes = append(resp.CachedHashes, h)
		} else {
			pending = append(pending, i)
		}
	}
	e.metrics.jobsCached.Add(uint64(len(resp.CachedHashes)))
	// The worker's sink: persist, fill the slot, count. Pool workers call it
	// concurrently, each for a slot of its own.
	sink := func(i int, rec *harness.Record, _ harness.Origin) error {
		if err := e.cfg.Store.Put(rec); err != nil {
			return err
		}
		resp.Records[i] = rec
		e.metrics.jobsExecuted.Inc()
		return nil
	}
	if err := e.pool.Dispatch(ctx, batch, pending, sink); err != nil {
		// A batch the coordinator gave up on is not a failed job: 422 would
		// make the coordinator fail its suite.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrJobFailed, err)
	}
	e.metrics.batches.Inc()
	e.log("fleet batch executed", "batch", req.Batch, "jobs", len(req.Hashes),
		"cached", len(resp.CachedHashes), "elapsed", time.Since(start).Round(time.Millisecond).String())
	return resp, nil
}

// Announce registers the worker with a coordinator and keeps the
// registration fresh: one POST per interval until ctx is cancelled.
// Registration is idempotent on the coordinator, so re-announcing after a
// coordinator restart transparently re-adds the worker.
func (e *Executor) Announce(ctx context.Context, coordinatorURL, selfURL string, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	client := NewClient(coordinatorURL, interval)
	register := func() {
		cctx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		if err := client.Register(cctx, selfURL); err != nil {
			if ctx.Err() == nil {
				e.log("fleet registration failed", "coordinator", coordinatorURL, "error", err.Error())
			}
			return
		}
	}
	register()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			register()
		}
	}
}

// decodeJSON reads one bounded JSON body.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxFleetBodyBytes)
	blob, err := io.ReadAll(body)
	if err != nil {
		return fmt.Errorf("fleet: reading request: %w", err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("fleet: decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
