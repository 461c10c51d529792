package fleet

import (
	"bfc/internal/harness"
	"bfc/internal/service"
)

// ExecuteRequest asks a worker to run a batch of jobs from a shipped suite.
// The worker recompiles Suite through its own experiments registry and
// executes exactly the jobs whose content hashes appear in Hashes (satisfying
// any it already computed from its own store). Shipping spec+hashes instead
// of jobs keeps the wire free of closures and makes version drift loud: a
// worker whose compilation does not produce a requested hash rejects the
// batch instead of running the wrong simulation.
type ExecuteRequest struct {
	// Batch identifies the batch for logs and metrics ("<suite-digest>/b3").
	Batch string `json:"batch"`
	// Suite is the wire form the worker recompiles.
	Suite service.SuiteSpec `json:"suite"`
	// Hashes selects the jobs to run, by JobSpec content hash.
	Hashes []string `json:"hashes"`
}

// ExecuteResponse returns the batch's records, one per requested hash, in
// request order.
type ExecuteResponse struct {
	Records []*harness.Record `json:"records"`
	// CachedHashes names the records this worker served from its own store
	// without executing, so the coordinator can account store hits as
	// fleet-dedup rather than remote execution.
	CachedHashes []string `json:"cached_hashes,omitempty"`
}

// HaveRequest asks a worker which of the given job hashes its store already
// holds — the fleet-wide dedup probe.
type HaveRequest struct {
	Hashes []string `json:"hashes"`
}

// HaveResponse lists the subset of requested hashes present on the worker.
type HaveResponse struct {
	Have []string `json:"have"`
}

// RegisterRequest announces a worker to a coordinator.
type RegisterRequest struct {
	// URL is the base URL the coordinator should reach the worker at.
	URL string `json:"url"`
}

// Status is the GET /api/v1/fleet/status document, served by both modes.
type Status struct {
	// Mode is "coordinator" or "worker".
	Mode string `json:"mode"`

	// Coordinator-mode fields.
	Workers          []WorkerStatus `json:"workers,omitempty"`
	BatchesScattered uint64         `json:"batches_scattered,omitempty"`
	BatchesRetried   uint64         `json:"batches_retried,omitempty"`
	BatchesLocal     uint64         `json:"batches_local,omitempty"`
	JobsRemote       uint64         `json:"jobs_remote,omitempty"`
	JobsDeduped      uint64         `json:"jobs_deduped,omitempty"`

	// Worker-mode fields.
	Worker *ExecutorStatus `json:"worker,omitempty"`
}

// WorkerStatus is one registered worker as the coordinator sees it.
type WorkerStatus struct {
	URL string `json:"url"`
	// Alive reports the heartbeat verdict; LastSeenMS is the age of the last
	// successful probe in milliseconds (-1 before the first success).
	Alive      bool  `json:"alive"`
	LastSeenMS int64 `json:"last_seen_ms"`
	// Batches / Jobs count successful batch executions on this worker;
	// Failures counts failed or timed-out batch RPCs.
	Batches  uint64 `json:"batches"`
	Jobs     uint64 `json:"jobs"`
	Failures uint64 `json:"failures"`
	// Throughput is the coordinator ledger's observed execution profile for
	// this worker; nil until the first successful batch (or after eviction).
	Throughput *WorkerThroughput `json:"throughput,omitempty"`
}

// ExecutorStatus summarizes a worker-mode daemon's execution plane.
type ExecutorStatus struct {
	Batches      uint64 `json:"batches"`
	JobsExecuted uint64 `json:"jobs_executed"`
	JobsCached   uint64 `json:"jobs_cached"`
	Busy         int64  `json:"busy"`
}
