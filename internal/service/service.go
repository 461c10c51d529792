// Package service is the simulation-as-a-service tier: a long-lived Service
// accepts JSON-declared suites (a figure grid, a scenario or a run, see
// SuiteSpec), compiles them to harness jobs through package experiments,
// satisfies every already-computed job from a content-addressed result store,
// and hands the rest to its own bounded harness.Pool or to a fleet Dispatcher,
// with per-suite progress events. There is one road from a pending job to a
// stored record, whatever computed it: SubmitCompiled picks pool or fleet, one
// runSuite goroutine per uncached suite calls Dispatch, and every record comes
// back through one harness.Sink, completeJob (see Dispatcher and harness.Pool
// for who bounds, who persists and who counts).
//
// Caching is content-addressed end to end: a job's artifact is keyed by its
// content hash (harness.Job.Hash, which names sim.ModelVersion, so a record
// another model computed is never served), the store is the same JSONL
// artifact layout bfcsim -out writes, and that artifact is the only
// copy of a result the daemon has: a submission checks its bytes (Store.Read)
// and keeps none, a fetch streams them out (WriteResults) — resubmitting a
// completed suite performs zero simulation runs. Both reach the disk every
// time; the check parses only bytes the store has not already written or
// accepted, and a file equal to those is compared in place and served as the
// store's own bytes, so a warm resubmission or fetch copies no artifact.
// Determinism carries over from the harness: per-job seeds derive from job
// names, so served records are byte-identical no matter the worker count or
// which process computed them.
//
// cmd/bfcd wraps the Service in an HTTP API (see http.go) and cmd/bfcctl is
// the matching client.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"

	"bfc/internal/harness"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
)

// Config parameterizes a Service.
type Config struct {
	// Store persists and serves completed records. Required.
	Store *harness.Store
	// Workers bounds the simulation worker pool, and with it every job this
	// process executes for the service, a fleet coordinator's local fallback
	// included; <= 0 means runtime.GOMAXPROCS(0) via the default in New.
	Workers int
	// MaxActiveSuites bounds the number of suites simultaneously holding
	// uncached work; submissions beyond it fail with ErrBusy. Fully-cached
	// submissions never count against it. <= 0 means 4.
	MaxActiveSuites int
	// MaxSuiteHistory bounds retained terminal suites: once exceeded, the
	// oldest done/failed/cancelled suites are forgotten (their records stay
	// in the store; only the per-suite bookkeeping is released). Running
	// suites are never evicted. <= 0 means 64.
	MaxSuiteHistory int
	// Logger, when non-nil, receives structured request/lifecycle logs from
	// the service and its HTTP handler.
	Logger *slog.Logger
	// Registry, when non-nil, receives the service's metric families. Sharing
	// one registry lets other planes of the same process (the fleet tier)
	// expose their families through the same /metrics endpoint. nil means a
	// private registry.
	Registry *telemetry.Registry
	// Fleet, when non-nil, dispatches the uncached jobs of shippable suites
	// (see CompiledSuite.Shippable) to a worker fleet instead of the local
	// pool; internal/fleet's Coordinator is the implementation. Non-shippable
	// and trace-enabled suites still run on the local pool.
	Fleet Dispatcher
}

// Dispatcher gets a suite's uncached jobs computed somewhere else than the
// Service's own pool: internal/fleet's Coordinator scatters them across
// registered workers and re-scatters on worker loss.
type Dispatcher interface {
	// Dispatch gets the pending jobs (indexes into cs.Jobs) computed and
	// delivers each record to sink exactly once, in any order, from any
	// goroutine. It returns nil once every pending job was delivered, or the
	// first error — a failed job, a failed sink, or ctx's when ctx ended.
	// After it returns none of its jobs starts any more, though one already
	// executing still delivers its record. local is the caller's own pool:
	// what a dispatcher cannot place elsewhere it runs there, so that work
	// stays bounded by the pool's size and counted by its gauges. A
	// dispatcher persists nothing and counts no job — the sink does both.
	Dispatch(ctx context.Context, cs *CompiledSuite, pending []int, sink harness.Sink, local *harness.Pool) error
}

// maxSuiteJobs bounds a single suite's job count: a submission is untrusted
// input, and every job costs a store lookup before anything is admitted.
const maxSuiteJobs = 4096

// SuiteState is a suite's lifecycle state.
type SuiteState string

// The suite states.
const (
	// StateRunning covers everything from submission to the last job.
	StateRunning SuiteState = "running"
	// StateDone means every job completed; WriteResults is available.
	StateDone SuiteState = "done"
	// StateFailed means a job failed; the suite stopped at the first error.
	StateFailed SuiteState = "failed"
	// StateCancelled means Cancel (or shutdown) stopped the suite early.
	StateCancelled SuiteState = "cancelled"
)

// ErrBusy is returned when MaxActiveSuites suites are already running. The
// HTTP layer maps it to 429 with a Retry-After of RetryAfterSeconds.
var ErrBusy = fmt.Errorf("service: too many active suites, retry later")

// RetryAfterSeconds is the Retry-After hint sent with 429 responses when the
// concurrent-suite limit is hit. Suites run for seconds to minutes, so a
// short fixed hint is honest: capacity frees in bursts, not on a schedule.
const RetryAfterSeconds = 2

// ErrClosed is returned for submissions after Close began.
var ErrClosed = fmt.Errorf("service: shutting down")

// ErrStorage wraps server-side store failures, so the HTTP layer can report
// them as 500s instead of blaming the client's spec.
var ErrStorage = fmt.Errorf("service: storage failure")

// Service is the daemon core. Create with New, stop with Close.
type Service struct {
	cfg     Config
	metrics *serviceMetrics
	pool    *harness.Pool

	mu     sync.Mutex
	suites map[string]*suite
	// history lists terminal suites in completion order (for eviction).
	history []string
	nextID  int
	active  int
	closed  bool
	wg      sync.WaitGroup // the runSuite goroutines
}

// suite is the server-side state of one submission.
type suite struct {
	id     string
	seq    int // the submission's sequence number, which id spells
	title  string
	figure string
	scale  string
	digest string
	jobs   []harness.Job
	// hashes[i] is jobs[i]'s content hash, taken once by SubmitCompiled: the
	// option mutators it appends (trace rings, exec stats) leave it unchanged.
	hashes []string

	mu       sync.Mutex
	finished []bool // per job: its artifact is in the store
	done     int
	cached   int
	executed int
	state    SuiteState
	err      string
	subs     map[int]chan Event
	nextSub  int

	// traces holds the per-job flight-recorder rings of a Trace-enabled
	// suite (nil otherwise; nil entries mark cache-satisfied jobs). The map
	// is fully built before any job is queued and never written afterwards,
	// so workers and trace fetches read it without locking.
	traces map[int]*telemetry.Ring

	// cancel ends the suite's dispatch when the suite reaches a terminal
	// state (done, cancel, failure, shutdown). Set before runSuite starts and
	// never reassigned; nil for a suite that was fully cached.
	cancel context.CancelFunc
}

// Event is one progress notification on a suite's subscription stream.
type Event struct {
	// Type is "job" (one job finished), "end" (the suite reached a terminal
	// state), or "status" (the opening snapshot every SSE stream begins
	// with).
	Type string `json:"type"`
	// Suite is the suite ID.
	Suite string `json:"suite"`
	// Job is the finished job's name (Type "job").
	Job string `json:"job,omitempty"`
	// Cached is true when the job was served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Done / Total track suite progress.
	Done  int `json:"done"`
	Total int `json:"total"`
	// State and Error describe the terminal state (Type "end").
	State SuiteState `json:"state,omitempty"`
	Error string     `json:"error,omitempty"`
	// Exec summarizes the job's wall-clock execution profile (Type "job",
	// jobs executed on this daemon's pool only — a remote worker's records
	// arrive over JSON, which the profile never crosses). bfcctl top renders
	// these.
	Exec *ExecEventStats `json:"exec,omitempty"`
}

// ExecEventStats is the per-job execution summary attached to "job" events.
type ExecEventStats struct {
	// Shards is the number of engine shards the job ran on (1 = serial).
	Shards int `json:"shards"`
	// Events counts simulator events dispatched; Windows the coordinator's
	// windows (one per barrier plus the closing one).
	Events  uint64 `json:"events"`
	Windows uint64 `json:"windows"`
	// Utilization is busy/(busy+barrier-wait) across shards.
	Utilization float64 `json:"utilization"`
	// WallMS is the run's wall-clock in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// execEventStats summarizes a run profile for the event stream (nil in, nil
// out).
func execEventStats(rs *execstats.RunStats) *ExecEventStats {
	if rs == nil {
		return nil
	}
	return &ExecEventStats{
		Shards:      len(rs.Shards),
		Events:      rs.TotalEvents,
		Windows:     rs.Windows,
		Utilization: rs.Utilization(),
		WallMS:      float64(rs.WallNS) / 1e6,
	}
}

// SuiteStatus is a point-in-time snapshot of one suite.
type SuiteStatus struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Figure string     `json:"figure"`
	Scale  string     `json:"scale"`
	Digest string     `json:"digest"`
	State  SuiteState `json:"state"`
	// Total counts the suite's jobs; Done the completed ones; Cached those
	// satisfied from the result cache without simulating; Executed those this
	// suite actually simulated.
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Cached   int    `json:"cached"`
	Executed int    `json:"executed"`
	Error    string `json:"error,omitempty"`
}

// Stats is a service-wide snapshot.
type Stats struct {
	// Suites counts submissions since start; ActiveSuites those still
	// running; QueuedJobs the jobs waiting for a worker (bfcd_queued_jobs).
	Suites       int `json:"suites"`
	ActiveSuites int `json:"active_suites"`
	QueuedJobs   int `json:"queued_jobs"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// JobsExecuted counts simulations actually run since start, on the local
	// pool or (for a fleet coordinator) on remote workers — the number the
	// cache-hit acceptance test pins at zero for a resubmission, and the one
	// /metrics shows as bfcd_jobs_executed_total. Fleet-manifest dedup hits do
	// not count: nothing executed anywhere.
	JobsExecuted uint64 `json:"jobs_executed"`
}

// New makes a Service and its worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: a store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxActiveSuites <= 0 {
		cfg.MaxActiveSuites = 4
	}
	if cfg.MaxSuiteHistory <= 0 {
		cfg.MaxSuiteHistory = 64
	}
	s := &Service{
		cfg:     cfg,
		suites:  map[string]*suite{},
		metrics: newServiceMetrics(cfg.Registry),
	}
	s.metrics.workers.Set(int64(cfg.Workers))
	s.pool = harness.NewPool(cfg.Workers, s.metrics.workersBusy, s.metrics.queuedJobs)
	return s, nil
}

// Close stops accepting work, cancels every running suite (queued jobs are
// skipped; in-flight simulations finish and their records are still stored),
// and waits for the dispatches to return and the pool to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	suites := make([]*suite, 0, len(s.suites))
	for _, st := range s.suites {
		suites = append(suites, st)
	}
	s.mu.Unlock()
	for _, st := range suites {
		s.finishSuite(st, StateCancelled, "service shutting down") // no-op on a terminal suite
	}
	s.wg.Wait()
	s.pool.Wait()
}

// Submit compiles and starts a suite. Jobs already present in the result
// store complete immediately; a suite whose every job is cached returns in
// state done without consuming an active-suite slot.
func (s *Service) Submit(spec *SuiteSpec) (SuiteStatus, error) {
	cs, err := spec.Compile()
	if err != nil {
		return SuiteStatus{}, err
	}
	return s.SubmitCompiled(cs)
}

// SubmitCompiled starts a pre-compiled suite (the path Submit and the HTTP
// layer share; also the seam tests use to inject custom jobs).
func (s *Service) SubmitCompiled(cs *CompiledSuite) (SuiteStatus, error) {
	if len(cs.Jobs) == 0 {
		s.metrics.suitesRejected.Inc()
		return SuiteStatus{}, fmt.Errorf("service: suite compiled to no jobs")
	}
	if len(cs.Jobs) > maxSuiteJobs {
		s.metrics.suitesRejected.Inc()
		return SuiteStatus{}, fmt.Errorf("service: suite has %d jobs, limit %d", len(cs.Jobs), maxSuiteJobs)
	}

	st := &suite{
		title:    cs.Title,
		figure:   cs.Figure,
		scale:    cs.Scale,
		digest:   cs.Digest,
		jobs:     cs.Jobs,
		hashes:   make([]string, len(cs.Jobs)),
		finished: make([]bool, len(cs.Jobs)),
		state:    StateRunning,
		subs:     map[int]chan Event{},
	}

	// Resolve the store before taking an active-suite slot: hits are free.
	// Read checks the bytes, dropped here: a damaged artifact is refused now.
	// Bytes the store wrote or accepted before are compared, not re-parsed.
	var pending []int
	for i := range st.jobs {
		st.hashes[i] = st.jobs[i].Hash()
		_, ok, err := s.cfg.Store.Read(st.hashes[i])
		if err != nil {
			s.metrics.suitesRejected.Inc()
			return SuiteStatus{}, fmt.Errorf("%w: %v", ErrStorage, err)
		}
		if ok {
			st.finished[i] = true
			st.done++
			st.cached++
			s.metrics.cacheHits.Inc()
			s.metrics.jobsCached.Inc()
		} else {
			pending = append(pending, i)
			s.metrics.cacheMisses.Inc()
		}
	}
	allCached := len(pending) == 0
	if allCached {
		st.state = StateDone
	}

	// Attach a flight recorder to every job this suite will actually run.
	// The rings are created up front in a read-only map, so the parallel
	// workers and later trace fetches need no extra synchronization; the
	// appended mutator leaves the job's content hash untouched (it covers
	// the model version, name, scheme and meta only; see harness.Job.Hash),
	// which keeps traced runs cache-compatible.
	if cs.Trace && !allCached {
		st.traces = make(map[int]*telemetry.Ring, len(pending))
		for _, i := range pending {
			ring := telemetry.NewRing(telemetry.DefaultRingCapacity)
			st.traces[i] = ring
			st.jobs[i].Options = append(st.jobs[i].Options, func(o *sim.Options) {
				o.Recorder = ring
			})
		}
	}

	// Profile every job this daemon may execute itself. Like the trace rings
	// above, the appended mutator leaves the content hash untouched and the
	// profiler is observational, so profiled records stay byte-identical and
	// cache-compatible; the profiles feed bfcd_exec_* and the SSE exec fields.
	for _, i := range pending {
		st.jobs[i].Options = append(st.jobs[i].Options, enableExecStats)
	}

	// Trace-enabled suites stay local: a remote worker's flight-recorder ring
	// cannot be attached to this process's trace endpoint.
	fleet := s.cfg.Fleet != nil && cs.Shippable() && !cs.Trace

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.suitesRejected.Inc()
		return SuiteStatus{}, ErrClosed
	}
	if !allCached && s.active >= s.cfg.MaxActiveSuites {
		s.mu.Unlock()
		s.metrics.suitesRejected.Inc()
		return SuiteStatus{}, ErrBusy
	}
	s.nextID++
	st.seq = s.nextID
	st.id = fmt.Sprintf("s%06d", st.seq)
	s.suites[st.id] = st
	s.metrics.suitesSubmitted.Inc()
	if allCached {
		s.retireLocked(st.id)
		s.metrics.suitesCompleted.With(string(StateDone)).Inc()
	} else {
		s.active++
		s.metrics.activeSuites.Inc()
		ctx, cancel := context.WithCancel(context.Background())
		st.cancel = cancel
		s.wg.Add(1)
		go s.runSuite(ctx, st, cs, fleet, pending)
	}
	s.mu.Unlock()
	s.log("suite submitted", "suite", st.id, "figure", st.figure, "scale", st.scale,
		"jobs", len(st.jobs), "cached", st.cached, "traced", st.traces != nil, "fleet", fleet)
	return s.statusOf(st), nil
}

// enableExecStats is the hash-neutral option mutator appended to every job
// the service may execute locally (one shared func, not a per-job closure).
func enableExecStats(o *sim.Options) { o.ExecStats = true }

// runSuite is a running suite's one goroutine: it hands the uncached jobs to
// the fleet or the service's pool, and fails the suite on the dispatch's
// error. A suite becomes done in completeJob, as its last record arrives;
// what Dispatch returns once the suite is terminal, finishSuite ignores.
func (s *Service) runSuite(ctx context.Context, st *suite, cs *CompiledSuite, fleet bool, pending []int) {
	defer s.wg.Done()
	sink := func(idx int, rec *harness.Record, origin harness.Origin) error {
		return s.completeJob(st, idx, rec, origin)
	}
	var err error
	if fleet {
		err = s.cfg.Fleet.Dispatch(ctx, cs, pending, sink, s.pool)
	} else {
		err = s.pool.Dispatch(ctx, cs.Jobs, pending, sink)
	}
	if err != nil {
		s.finishSuite(st, StateFailed, err.Error())
	}
}

// completeJob is every record's way into the service, wherever it was
// computed: pool workers and a fleet dispatcher's goroutine call it
// concurrently. The record is persisted and counted unconditionally (work
// computed anywhere must never be lost, even for a suite that ended
// meanwhile), then its job is marked finished if the suite is still running.
func (s *Service) completeJob(st *suite, idx int, rec *harness.Record, origin harness.Origin) error {
	if err := s.cfg.Store.Put(rec); err != nil {
		return err
	}
	// The profile is json:"-": nil on every record that crossed HTTP, set on
	// the ones this process's pool executed, so no origin test is needed.
	var exec *execstats.RunStats
	if rec.Result != nil {
		exec = rec.Result.Exec
	}
	if origin.Cached {
		s.metrics.jobsCached.Inc()
	} else {
		s.metrics.jobsExecuted.Inc()
		s.metrics.recordExec(exec)
	}

	st.mu.Lock()
	if st.state != StateRunning {
		st.mu.Unlock()
		return nil
	}
	st.finished[idx] = true
	st.done++
	if origin.Cached {
		st.cached++
	} else {
		st.executed++
	}
	finished := st.done == len(st.jobs)
	st.notifyLocked(Event{
		Type: "job", Suite: st.id, Job: st.jobs[idx].Name, Cached: origin.Cached,
		Done: st.done, Total: len(st.jobs), Exec: execEventStats(exec),
	})
	st.mu.Unlock()
	s.log("job complete", "suite", st.id, "job", st.jobs[idx].Name, "where", origin.Where)
	if finished {
		s.finishSuite(st, StateDone, "")
	}
	return nil
}

// log emits a structured log line when a logger is configured.
func (s *Service) log(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

// retireLocked (s.mu held) records a suite as terminal and evicts the oldest
// terminal suites beyond MaxSuiteHistory. Evicted suite IDs become unknown to
// Status/WriteResults; the records themselves remain in the store.
func (s *Service) retireLocked(id string) {
	s.history = append(s.history, id)
	for len(s.history) > s.cfg.MaxSuiteHistory {
		old := s.history[0]
		s.history = s.history[1:]
		delete(s.suites, old)
	}
}

// Status returns a suite snapshot.
func (s *Service) Status(id string) (SuiteStatus, error) {
	st, err := s.lookup(id)
	if err != nil {
		return SuiteStatus{}, err
	}
	return s.statusOf(st), nil
}

// ListStatuses returns every suite in submission order. That is the order
// of seq, not of id: "s%06d" stops sorting lexically at a seventh digit.
func (s *Service) ListStatuses() []SuiteStatus {
	s.mu.Lock()
	suites := make([]*suite, 0, len(s.suites))
	for _, st := range s.suites {
		suites = append(suites, st)
	}
	s.mu.Unlock()
	sort.Slice(suites, func(a, b int) bool { return suites[a].seq < suites[b].seq })
	out := make([]SuiteStatus, len(suites))
	for i, st := range suites {
		out[i] = s.statusOf(st)
	}
	return out
}

// WriteResults streams the completed suite's store artifacts to w in job
// order — the bytes Put wrote, so the stream diffs cleanly against
// bfcsim -out files. It fails until the suite is done. n counts the
// bytes written: an artifact gone missing or bad (ErrStorage) ends the stream
// at a line boundary, with n == 0 before anything reached w.
func (s *Service) WriteResults(w io.Writer, id string) (n int64, err error) {
	st, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	if state := s.statusOf(st).State; state != StateDone {
		return 0, fmt.Errorf("service: suite %s is %s, results need state done", id, state)
	}
	for i := range st.jobs {
		line, ok, err := s.cfg.Store.Read(st.hashes[i])
		if err == nil && !ok {
			err = fmt.Errorf("artifact of job %q is gone from the store", st.jobs[i].Name)
		}
		if err != nil {
			return n, fmt.Errorf("%w: %v", ErrStorage, err)
		}
		wrote, err := w.Write(line)
		n += int64(wrote)
		if err != nil {
			return n, err // client went away mid-stream
		}
	}
	return n, nil
}

// Cancel stops a running suite: queued jobs are skipped, in-flight jobs
// finish (their records still land in the store) but the suite no longer
// waits for them.
func (s *Service) Cancel(id string) error {
	st, err := s.lookup(id)
	if err != nil {
		return err
	}
	if !s.finishSuite(st, StateCancelled, "cancelled") {
		return fmt.Errorf("service: suite %s is already %s", id, s.statusOf(st).State)
	}
	return nil
}

// Subscribe returns the suite's current status plus a progress event channel.
// The channel is closed when the suite reaches a terminal state (after an
// "end" event); for an already-terminal suite it is nil. cancel releases the
// subscription early.
func (s *Service) Subscribe(id string) (SuiteStatus, <-chan Event, func(), error) {
	st, err := s.lookup(id)
	if err != nil {
		return SuiteStatus{}, nil, nil, err
	}
	st.mu.Lock()
	if st.state != StateRunning {
		st.mu.Unlock()
		return s.statusOf(st), nil, func() {}, nil
	}
	ch := make(chan Event, 256)
	sub := st.nextSub
	st.nextSub++
	st.subs[sub] = ch
	st.mu.Unlock()
	cancel := func() {
		st.mu.Lock()
		if c, ok := st.subs[sub]; ok {
			delete(st.subs, sub)
			close(c)
		}
		st.mu.Unlock()
	}
	return s.statusOf(st), ch, cancel, nil
}

// Stats returns a service-wide snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	out := Stats{Suites: s.nextID, ActiveSuites: s.active, Workers: s.cfg.Workers}
	s.mu.Unlock()
	out.QueuedJobs = int(s.metrics.queuedJobs.Value())
	out.JobsExecuted = s.metrics.jobsExecuted.Value()
	return out
}

// Store exposes the underlying artifact store (for manifest listings).
func (s *Service) Store() *harness.Store { return s.cfg.Store }

// ---------------------------------------------------------------------------
// internals

func (s *Service) lookup(id string) (*suite, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.suites[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown suite %q", id)
	}
	return st, nil
}

func (s *Service) statusOf(st *suite) SuiteStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return SuiteStatus{
		ID: st.id, Title: st.title, Figure: st.figure, Scale: st.scale,
		Digest: st.digest, State: st.state,
		Total: len(st.jobs), Done: st.done, Cached: st.cached, Executed: st.executed,
		Error: st.err,
	}
}

// finishSuite moves a suite to a terminal state (once), ends its dispatch,
// emits the end event, closes subscriptions, and releases the active-suite
// slot. It reports whether this call performed the transition.
func (s *Service) finishSuite(st *suite, state SuiteState, reason string) bool {
	st.mu.Lock()
	if st.state != StateRunning {
		st.mu.Unlock()
		return false
	}
	st.state = state
	if state != StateDone {
		st.err = reason
	}
	// End the dispatch: pool workers skip the suite's queued jobs as they pop
	// them, a fleet drops outstanding batches (its workers finish what they
	// are executing into their own stores).
	st.cancel()
	ev := Event{
		Type: "end", Suite: st.id, Done: st.done, Total: len(st.jobs),
		State: state, Error: st.err,
	}
	st.notifyLocked(ev)
	for sub, ch := range st.subs {
		delete(st.subs, sub)
		close(ch)
	}
	st.mu.Unlock()

	s.mu.Lock()
	s.active--
	s.retireLocked(st.id)
	s.mu.Unlock()
	s.metrics.activeSuites.Dec()
	s.metrics.suitesCompleted.With(string(state)).Inc()
	s.log("suite finished", "suite", st.id, "state", string(state), "error", reason)
	return true
}

// notifyLocked fans an event out to subscribers without blocking: a
// subscriber that fell 256 events behind loses intermediate events (it will
// see the channel close and re-fetch the status).
func (st *suite) notifyLocked(ev Event) {
	for _, ch := range st.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}
