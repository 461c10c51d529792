package service

import (
	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
)

// serviceMetrics is the daemon's Prometheus-style instrument set, exposed by
// the /metrics endpoint. Every instrument is updated at the event it counts
// (submission, completion, job execution), never recomputed at scrape time,
// so scrapes are cheap and lock-free.
type serviceMetrics struct {
	reg *telemetry.Registry

	suitesSubmitted *telemetry.Counter
	suitesCompleted *telemetry.CounterVec // label "state": done | failed | cancelled
	suitesRejected  *telemetry.Counter
	jobsExecuted    *telemetry.Counter
	jobsCached      *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter
	activeSuites    *telemetry.Gauge
	queuedJobs      *telemetry.Gauge
	workers         *telemetry.Gauge
	workersBusy     *telemetry.Gauge
	httpRequests    *telemetry.CounterVec // label "code"
	httpLatency     *telemetry.Histogram

	// bfcd_exec_* aggregate the wall-clock execution profiles of the jobs this
	// daemon's pool executed, a coordinator's local fallback included (every
	// run carries its profile; a remote worker's records arrive over JSON,
	// which the profile never crosses by design).
	execRuns          *telemetry.Counter
	execShardedRuns   *telemetry.Counter
	execEvents        *telemetry.Counter
	execWindows       *telemetry.Counter
	execBarrierWaitNS *telemetry.Counter
}

// newServiceMetrics registers the service families, on the given registry
// when non-nil (so co-resident planes like the fleet tier share one /metrics
// exposition) or on a fresh private one.
func newServiceMetrics(reg *telemetry.Registry) *serviceMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &serviceMetrics{
		reg:             reg,
		suitesSubmitted: reg.NewCounter("bfcd_suites_submitted_total", "Suites accepted since start."),
		suitesCompleted: reg.NewCounterVec("bfcd_suites_completed_total", "Suites reaching a terminal state, by state.", "state"),
		suitesRejected:  reg.NewCounter("bfcd_suites_rejected_total", "Submissions refused (busy, shutting down, storage failure, bad spec)."),
		jobsExecuted:    reg.NewCounter("bfcd_jobs_executed_total", "Simulation jobs actually executed (cache misses that ran)."),
		jobsCached:      reg.NewCounter("bfcd_jobs_cached_total", "Jobs satisfied from the result cache at submission."),
		cacheHits:       reg.NewCounter("bfcd_cache_hits_total", "Submission-time result-cache hits."),
		cacheMisses:     reg.NewCounter("bfcd_cache_misses_total", "Submission-time result-cache misses."),
		activeSuites:    reg.NewGauge("bfcd_active_suites", "Suites currently holding uncached work."),
		queuedJobs:      reg.NewGauge("bfcd_queued_jobs", "Jobs waiting for a pool worker; a cancelled suite's jobs count until a worker pops and skips them."),
		workers:         reg.NewGauge("bfcd_workers", "Simulation worker pool size."),
		workersBusy:     reg.NewGauge("bfcd_workers_busy", "Pool workers currently executing a job (local suites and fleet fallback alike)."),
		httpRequests:    reg.NewCounterVec("bfcd_http_requests_total", "HTTP requests served, by status code.", "code"),
		httpLatency:     reg.NewHistogram("bfcd_http_request_seconds", "HTTP request latency in seconds.", nil),

		execRuns:          reg.NewCounter("bfcd_exec_runs_total", "Jobs executed on this daemon's pool that collected a wall-clock execution profile."),
		execShardedRuns:   reg.NewCounter("bfcd_exec_sharded_runs_total", "Profiled jobs that ran on the sharded engine (>1 shard)."),
		execEvents:        reg.NewCounter("bfcd_exec_events_total", "Simulator events dispatched by profiled jobs."),
		execWindows:       reg.NewCounter("bfcd_exec_windows_total", "Lookahead windows executed by profiled sharded jobs."),
		execBarrierWaitNS: reg.NewCounter("bfcd_exec_barrier_wait_ns_total", "Cumulative wall-clock nanoseconds shards spent parked at barriers."),
	}
	info := telemetry.ReadBuildInfo()
	reg.Const("bfcd_build_info", "Build information (value is always 1).", 1, map[string]string{
		"module":   info.Module,
		"version":  info.Version,
		"go":       info.GoVersion,
		"revision": info.Revision,
	})
	return m
}

// recordExec folds one job's execution profile into the bfcd_exec_* families.
func (m *serviceMetrics) recordExec(rs *execstats.RunStats) {
	if rs == nil {
		return
	}
	m.execRuns.Inc()
	if len(rs.Shards) > 1 {
		m.execShardedRuns.Inc()
	}
	m.execEvents.Add(rs.TotalEvents)
	m.execWindows.Add(rs.Windows)
	if wait := rs.BarrierWaitNS(); wait > 0 {
		m.execBarrierWaitNS.Add(uint64(wait))
	}
}

// Metrics exposes the service's metric registry (for /metrics and tests).
func (s *Service) Metrics() *telemetry.Registry { return s.metrics.reg }
