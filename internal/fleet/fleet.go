// Package fleet is the distributed execution tier: it teaches the bfcd
// daemon to run as a coordinator that scatters simulation work across many
// worker daemons and merges their results back into one deterministic suite
// stream, in the scatter/merge shape of goProbe's global-query plane.
//
// The unit of work crossing the wire is deliberately NOT a job closure —
// harness.Job carries topology/workload builders that cannot leave the
// process. Instead the coordinator ships the suite's wire-form spec
// (service.SuiteSpec) plus the content hashes of the jobs a worker should
// run; the worker recompiles the spec through the same experiments registry
// and matches the requested hashes against its own compilation. Everything
// that decides a job's outcome is declared in the figure table both sides
// compile, so no daemon setting can make them disagree on a hash. Both sides
// derive per-job seeds from job names, so a record computed on any worker is
// byte-identical to one computed locally or on any other worker — which is
// what makes the content hash a fleet-wide dedup key: before scattering, the
// coordinator asks every live worker which hashes it already has (the union
// of the worker stores' listings plus the coordinator's own is the fleet-wide
// manifest) and satisfies those jobs, fetched as stored bytes, with zero runs.
//
// Robustness is part of the subsystem, not a bolt-on: workers register
// statically (-fleet-workers) or dynamically (POST /api/v1/fleet/register, kept
// fresh by Announce), the coordinator heartbeats them and stops scattering to
// dead ones, every batch RPC has a timeout and retries with capped
// exponential backoff (jitter derived deterministically from the batch ID),
// batches lost to a dying worker are re-scattered to the survivors, and a
// batch that exhausts its remote attempts is given back to the submitting
// daemon's own worker pool, so a fleet whose every worker died degrades to a
// slow single node — bounded by -parallel and profiled like one — instead of
// a stuck suite. Everything is observable: bfcd_fleet_* Prometheus families
// and per-batch structured logs recording every scatter, retry, re-scatter
// and fallback.
//
// Nothing in this package runs a job itself: jobs execute on a harness.Pool —
// the worker-side Executor owns one, the Coordinator is handed the submitting
// service's with every Dispatch call — and reach a store through a
// harness.Sink: the service's completeJob on a coordinator, Store.Put plus the
// response slot on a worker.
package fleet

// Wire paths of the fleet API, mounted under the service handler's mux.
const (
	pathStatus   = "/api/v1/fleet/status"
	pathRegister = "/api/v1/fleet/register"
	pathManifest = "/api/v1/fleet/manifest"
	pathHave     = "/api/v1/fleet/have"
	pathExecute  = "/api/v1/fleet/execute"
	pathRecord   = "/api/v1/fleet/record/"
)

// maxFleetBodyBytes bounds every fleet request body: a suite spec is at most
// service.MaxSuiteSpecBytes and a batch of hashes is kilobytes, so anything
// beyond a few MB is a mistake or an attack.
const maxFleetBodyBytes = 4 << 20

// maxHaveHashes bounds one membership query; the coordinator chunks larger
// suites itself.
const maxHaveHashes = 1 << 16
