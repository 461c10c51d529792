package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/service"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
)

// tinySpec is the standard test submission: a two-scheme Fig 5a panel at
// tiny scale — real simulations, but seconds not minutes.
func tinySpec() *service.SuiteSpec {
	return &service.SuiteSpec{Figure: "fig05a", Scale: "tiny", Schemes: []string{"BFC", "DCQCN"}}
}

// directRun executes the tinySpec grid straight through the harness — the
// byte-parity reference every fleet path must reproduce.
func directRun(t *testing.T) []*harness.Record {
	t.Helper()
	return directRunSchemes(t, []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
}

// directRunSchemes is directRun for any scheme set of the tiny Fig 5a panel
// (nil: the paper's six).
func directRunSchemes(t *testing.T, schemes []sim.Scheme) []*harness.Record {
	t.Helper()
	scale, _ := experiments.ScaleByName("tiny")
	jobs := experiments.Fig05Jobs(scale, experiments.Fig05aGoogleIncast, schemes)
	recs, err := (&harness.Runner{Parallel: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// metricValue reads one unlabelled integer series from a registry's text
// exposition; -1 when it is not there.
func metricValue(reg *telemetry.Registry, name string) int {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, found := strings.CutPrefix(line, name+" "); found {
			if v, err := strconv.Atoi(rest); err == nil {
				return v
			}
		}
	}
	return -1
}

// checkOneExecutedCounter asserts that the stats document and /metrics read
// the same count of executed jobs.
func checkOneExecutedCounter(t *testing.T, svc *service.Service) {
	t.Helper()
	stats, metric := svc.Stats().JobsExecuted, metricValue(svc.Metrics(), "bfcd_jobs_executed_total")
	if metric < 0 || stats != uint64(metric) {
		t.Fatalf("Stats.JobsExecuted = %d but bfcd_jobs_executed_total = %d", stats, metric)
	}
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// readResults decodes a suite's result stream, WriteResults' JSONL, into
// records in job order.
func readResults(svc *service.Service, id string) ([]*harness.Record, error) {
	var body bytes.Buffer
	if _, err := svc.WriteResults(&body, id); err != nil {
		return nil, err
	}
	var recs []*harness.Record
	for dec := json.NewDecoder(&body); dec.More(); {
		rec := &harness.Record{}
		if err := dec.Decode(rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// assertResultsAreTheArtifacts holds a tinySpec suite's result stream to the
// one thing it may be: the concatenation of the files in the serving daemon's
// store that the suite's jobs hash to, in job order — and, across the fleet,
// the same bytes every worker store holds under those names.
func assertResultsAreTheArtifacts(t *testing.T, svc *service.Service, id string, workers ...*harness.Store) {
	t.Helper()
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range cs.Jobs {
		name := cs.Jobs[i].Hash() + ".jsonl"
		artifact, err := os.ReadFile(filepath.Join(svc.Store().Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, artifact...)
		for _, w := range workers {
			if theirs, err := os.ReadFile(filepath.Join(w.Dir(), name)); err == nil && !bytes.Equal(theirs, artifact) {
				t.Fatalf("job %s: the worker's artifact and the coordinator's differ", cs.Jobs[i].Name)
			}
		}
	}
	var got bytes.Buffer
	if _, err := svc.WriteResults(&got, id); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("suite %s: the %d served bytes are not the %d bytes of its artifacts in job order", id, got.Len(), len(want))
	}
}

// newWorker spins up a worker-mode daemon: an Executor serving the fleet API
// over a real HTTP listener.
func newWorker(t *testing.T) (*Executor, *harness.Store, *httptest.Server) {
	t.Helper()
	store, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(ExecutorConfig{Store: store, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	exec.Routes()(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return exec, store, srv
}

// newFleetService builds a coordinator-mode service: a service.Service whose
// uncached jobs are dispatched through a Coordinator. mutate adjusts the
// coordinator's configuration.
func newFleetService(t *testing.T, workers []string, mutate func(*Config)) (*service.Service, *Coordinator) {
	t.Helper()
	store, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ccfg := Config{
		Store:       store,
		Workers:     workers,
		BatchJobs:   1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&ccfg)
	}
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	svc, err := service.New(service.Config{Store: store, Workers: 2, Fleet: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, coord
}

// waitState polls until the suite leaves StateRunning.
func waitState(t *testing.T, svc *service.Service, id string) service.SuiteStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		status, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if status.State != service.StateRunning {
			return status
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("suite %s did not finish in time", id)
	return service.SuiteStatus{}
}

func TestFleetScatterMatchesDirectRun(t *testing.T) {
	_, storeA, srvA := newWorker(t)
	_, storeB, srvB := newWorker(t)
	svc, coord := newFleetService(t, []string{srvA.URL, srvB.URL}, nil)

	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, status.ID)
	if done.State != service.StateDone || done.Executed != 2 || done.Cached != 0 {
		t.Fatalf("fleet run ended %+v", done)
	}
	recs, err := readResults(svc, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The tentpole acceptance criterion: the merged suite stream must be
	// byte-identical to a serial single-node run of the same grid.
	if got, want := marshal(t, recs), marshal(t, directRun(t)); got != want {
		t.Fatal("fleet-merged records differ from a direct serial harness run")
	}
	// With one-job batches and two workers, both must have executed.
	if got := coord.metrics.jobsRemote.Value(); got != 2 {
		t.Fatalf("jobs_remote = %d, want 2", got)
	}
	if !storeA.Has(recs[0].Hash) && !storeB.Has(recs[0].Hash) {
		t.Fatal("no worker store holds the first record")
	}
	checkOneExecutedCounter(t, svc)
	assertResultsAreTheArtifacts(t, svc, status.ID, storeA, storeB) // cold

	// Resubmission: every record is now in the coordinator's own cache, so
	// the suite completes synchronously with zero fleet traffic.
	execBefore := svc.Stats().JobsExecuted
	second, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != service.StateDone || second.Cached != 2 || second.Executed != 0 {
		t.Fatalf("resubmission was not fully cached: %+v", second)
	}
	if got := svc.Stats().JobsExecuted; got != execBefore {
		t.Fatalf("resubmission executed %d simulations", got-execBefore)
	}
	assertResultsAreTheArtifacts(t, svc, second.ID, storeA, storeB) // warm
}

// TestDefaultScatterSpreadsAcrossWorkers runs the plan users get — the
// default BatchJobs, not the one-job batches the other tests pin — and checks
// that a suite smaller than one batch still goes to both workers: the batch
// count is rounded up to a multiple of the live workers.
func TestDefaultScatterSpreadsAcrossWorkers(t *testing.T) {
	_, _, srvA := newWorker(t)
	_, _, srvB := newWorker(t)
	svc, coord := newFleetService(t, []string{srvA.URL, srvB.URL}, func(cfg *Config) {
		cfg.BatchJobs = 0
	})

	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, svc, status.ID); done.State != service.StateDone || done.Executed != 2 {
		t.Fatalf("suite ended %+v", done)
	}
	st := coord.Status()
	if st.BatchesScattered != 2 {
		t.Errorf("batches scattered = %d, want 2", st.BatchesScattered)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("%d workers in status, want 2", len(st.Workers))
	}
	for _, w := range st.Workers {
		if w.Jobs != 1 {
			t.Errorf("worker %s ran %d jobs, want 1", w.URL, w.Jobs)
		}
	}
}

// TestWorkerRecordEndpointServesOnlyArtifacts: the record endpoint answers a
// stored hash with the artifact's bytes as they are on disk, and a {hash}
// segment that ServeMux unescapes into a path — the store sits at
// <root>/a/store, the request names <root>/secret.jsonl — with a 404 that
// carries nothing of the file it pointed at.
func TestWorkerRecordEndpointServesOnlyArtifacts(t *testing.T) {
	root := t.TempDir()
	store, err := harness.NewStore(filepath.Join(root, "a", "store"))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(ExecutorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	exec.Routes()(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	job := harness.Job{Name: "secret/job", Scheme: sim.SchemeBFC}
	rec := &harness.Record{
		ManifestEntry: harness.ManifestEntry{Hash: job.Hash(), Name: job.Name, Scheme: "BFC", Model: sim.ModelVersion},
		Seed:          job.Seed(),
	}
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}
	artifact, err := os.ReadFile(filepath.Join(store.Dir(), rec.Hash+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, outside := range []string{filepath.Join(root, "secret.jsonl"), filepath.Join(root, "a", "secret.jsonl")} {
		if err := os.WriteFile(outside, artifact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	get := func(segment string) (int, []byte) {
		resp, err := http.Get(srv.URL + pathRecord + segment)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := get(rec.Hash); code != http.StatusOK || !bytes.Equal(body, artifact) {
		t.Fatalf("stored hash: %d, %q; want 200 and the artifact's bytes", code, body)
	}
	for _, segment := range []string{"..%2F..%2Fsecret", "..%2Fsecret", "%2E%2E%2Fsecret", rec.Hash + "%2F..%2F" + rec.Hash, "secret"} {
		if code, body := get(segment); code != http.StatusNotFound || bytes.Contains(body, []byte(job.Name)) {
			t.Fatalf("GET %s%s: %d, %q; want a 404 naming no record", pathRecord, segment, code, body)
		}
	}
	got, err := NewClient(srv.URL, time.Second).Record(context.Background(), rec.Hash)
	if err != nil || got.Name != rec.Name || got.Hash != rec.Hash {
		t.Fatalf("client decode of the raw artifact: %+v, %v", got, err)
	}
	if got, err := NewClient(srv.URL, time.Second).Record(context.Background(), "../../secret"); err == nil {
		t.Fatalf("client fetched %+v through a traversing hash", got)
	}
}

func TestFleetDedupSkipsExecutionEverywhere(t *testing.T) {
	// Pre-seed one worker's store with the whole grid, as if another
	// coordinator had computed it there.
	_, store, srv := newWorker(t)
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs.Jobs {
		rec, err := cs.Jobs[i].Execute()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	svc, coord := newFleetService(t, []string{srv.URL}, nil)
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, status.ID)
	// Every job was satisfied from the fleet-wide manifest: zero executions
	// on the coordinator AND zero on the worker.
	if done.State != service.StateDone || done.Cached != 2 || done.Executed != 0 {
		t.Fatalf("dedup run ended %+v", done)
	}
	if got := svc.Stats().JobsExecuted; got != 0 {
		t.Fatalf("fleet-deduped suite executed %d jobs", got)
	}
	if got := coord.metrics.jobsDeduped.Value(); got != 2 {
		t.Fatalf("jobs_deduped = %d, want 2", got)
	}
	recs, err := readResults(svc, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, recs), marshal(t, directRun(t)); got != want {
		t.Fatal("deduped records differ from a direct serial harness run")
	}
}

func TestFleetSurvivesDeadWorker(t *testing.T) {
	// One real worker plus one that is already gone (its listener closed):
	// batches scattered to the corpse fail, get retried with backoff, and
	// re-scatter to the survivor. The suite must still finish with records
	// byte-identical to a serial run.
	_, _, srvGood := newWorker(t)
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()

	svc, coord := newFleetService(t, []string{srvGood.URL, deadURL}, func(cfg *Config) {
		cfg.MaxAttempts = 4
		cfg.InflightPerWorker = 1
	})
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, status.ID)
	if done.State != service.StateDone || done.Done != 2 {
		t.Fatalf("suite with dead worker ended %+v", done)
	}
	recs, err := readResults(svc, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, recs), marshal(t, directRun(t)); got != want {
		t.Fatal("records after worker death differ from a direct serial harness run")
	}
	if coord.metrics.retried.Value() == 0 && coord.metrics.scattered.Value() <= 2 {
		t.Log("note: scheduler never hit the dead worker (legal but unusual with 2 workers)")
	}
}

// TestFleetBatchMetricsEndToEnd drives a real two-worker scatter and checks
// the observability plane it should leave behind: the bfcd_fleet_batch_seconds
// histogram has observed every remote batch, the throughput ledger has a
// profile for each worker (surfaced both in fleet status and as the
// bfcd_fleet_worker_throughput gauge family), and evicting a worker removes
// its series instead of freezing it.
func TestFleetBatchMetricsEndToEnd(t *testing.T) {
	_, _, srvA := newWorker(t)
	_, _, srvB := newWorker(t)
	reg := telemetry.NewRegistry()
	svc, coord := newFleetService(t, []string{srvA.URL, srvB.URL}, func(cfg *Config) {
		cfg.Registry = reg
	})

	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, svc, status.ID); done.State != service.StateDone {
		t.Fatalf("suite ended %+v", done)
	}

	var buf bytes.Buffer
	reg.WriteText(&buf)
	out := buf.String()
	// One-job batches across two jobs: the histogram must hold exactly the
	// scattered batch count (local fallbacks don't observe it).
	want := fmt.Sprintf("bfcd_fleet_batch_seconds_count %d", coord.metrics.scattered.Value())
	if !strings.Contains(out, want) {
		t.Errorf("missing %q in exposition:\n%s", want, out)
	}
	if coord.metrics.scattered.Value() == 0 {
		t.Fatal("no batches scattered; the end-to-end path did not run")
	}
	if !strings.Contains(out, "bfcd_fleet_batch_seconds_sum") {
		t.Error("batch_seconds histogram has no sum series")
	}

	// Every worker that executed a batch has a ledger profile, in both the
	// status document and the metric family.
	st := coord.Status()
	for _, w := range st.Workers {
		if w.Jobs == 0 {
			continue
		}
		if w.Throughput == nil {
			t.Errorf("worker %s executed %d jobs but has no throughput profile", w.URL, w.Jobs)
			continue
		}
		if w.Throughput.JobsPerSec <= 0 || w.Throughput.Batches == 0 {
			t.Errorf("worker %s throughput = %+v", w.URL, w.Throughput)
		}
		series := fmt.Sprintf("bfcd_fleet_worker_throughput{worker=%q}", w.URL)
		if !strings.Contains(out, series) {
			t.Errorf("missing %s in exposition:\n%s", series, out)
		}

		// Eviction (the dead-worker path) must drop both surfaces.
		coord.evictThroughput(w.URL)
		if _, ok := coord.ledger.Snapshot(w.URL); ok {
			t.Errorf("worker %s still in ledger after eviction", w.URL)
		}
		buf.Reset()
		reg.WriteText(&buf)
		if strings.Contains(buf.String(), series) {
			t.Errorf("worker %s throughput series survived eviction", w.URL)
		}
	}
}

func TestFleetFallsBackToLocalWithoutWorkers(t *testing.T) {
	svc, coord := newFleetService(t, nil, nil)
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, status.ID)
	if done.State != service.StateDone || done.Executed != 2 {
		t.Fatalf("workerless fleet run ended %+v", done)
	}
	if got := coord.metrics.local.Value(); got != 2 {
		t.Fatalf("batches_local = %d, want 2 (one-job batches)", got)
	}
	recs, err := readResults(svc, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, recs), marshal(t, directRun(t)); got != want {
		t.Fatal("local-fallback records differ from a direct serial harness run")
	}
}

// TestFleetLocalFallbackHonoursWorkerBound pins what "degrades to a slow single
// node" means: a fleet without workers runs its batches on the coordinator
// daemon's own pool, so they are bounded by its size, visible on its gauges
// and profiled like any local job. Six one-job batches on a pool of two.
func TestFleetLocalFallbackHonoursWorkerBound(t *testing.T) {
	svc, coord := newFleetService(t, nil, nil)
	status, err := svc.Submit(&service.SuiteSpec{Figure: "fig05a", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	_, events, cancel, err := svc.Subscribe(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Sample while the suite runs: goroutines inside Job.Execute (what runs,
	// whoever started it) and the pool's busy gauge (what is accounted for).
	stop := make(chan struct{})
	sampled := make(chan [2]int)
	go func() {
		var peak [2]int
		stacks := make([]byte, 1<<20)
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
			}
			n := runtime.Stack(stacks, true)
			peak[0] = max(peak[0], bytes.Count(stacks[:n], []byte("harness.(*Job).Execute(")))
			peak[1] = max(peak[1], metricValue(svc.Metrics(), "bfcd_workers_busy"))
			time.Sleep(time.Millisecond)
		}
	}()
	done := waitState(t, svc, status.ID)
	close(stop)
	peak := <-sampled
	if done.State != service.StateDone || done.Total != 6 || done.Executed != 6 {
		t.Fatalf("workerless fleet run ended %+v", done)
	}
	if peak[0] < 1 || peak[0] > 2 {
		t.Errorf("peak concurrent executions = %d, want 1..2 (the pool has two workers)", peak[0])
	}
	if peak[1] < 1 || peak[1] > 2 {
		t.Errorf("peak bfcd_workers_busy = %d, want 1..2", peak[1])
	}
	if got := coord.metrics.local.Value(); got != 6 {
		t.Errorf("batches_local = %d, want 6 (one-job batches)", got)
	}
	if got := metricValue(svc.Metrics(), "bfcd_exec_runs_total"); got != 6 {
		t.Errorf("bfcd_exec_runs_total = %d, want 6: fallback jobs pay for a profile, so it must be kept", got)
	}
	checkOneExecutedCounter(t, svc)
	jobEvents := 0
	for ev := range events {
		if ev.Type == "job" {
			jobEvents++
			if ev.Exec == nil || ev.Exec.Events == 0 {
				t.Errorf("job event for %s carries no execution profile", ev.Job)
			}
		}
	}
	if jobEvents == 0 {
		t.Error("no job event reached the subscription")
	}
	recs, err := readResults(svc, status.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshal(t, recs), marshal(t, directRunSchemes(t, nil)); got != want {
		t.Fatal("local-fallback records differ from a direct serial harness run")
	}
}

// TestFleetPanickingJobFailsSuiteNotDaemon drives a job whose builder panics
// through the coordinator's own execution path (a workerless fleet runs its
// batches locally): harness.Job.Execute turns the panic into the batch's
// error, the suite fails with it, and the daemon runs the next suite.
func TestFleetPanickingJobFailsSuiteNotDaemon(t *testing.T) {
	svc, _ := newFleetService(t, nil, nil)
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	cs.Jobs[1].Flows = func(*topology.Topology) []*packet.Flow { panic("bad sweep point") }
	status, err := svc.SubmitCompiled(cs)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, svc, status.ID)
	if failed.State != service.StateFailed || !strings.Contains(failed.Error, "panicked: bad sweep point") {
		t.Fatalf("suite ended %+v, want failed with the builder's panic as its error", failed)
	}
	next, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, svc, next.ID); done.State != service.StateDone || done.Done != done.Total {
		t.Fatalf("suite after the panic ended %+v", done)
	}
}

// TestExecutorRejectsVersionDrift: a coordinator on another model asks for
// hashes this worker's compilation does not produce. The request names
// tinySpec's BFC job by its model-0 hash (from before job hashes mixed in
// sim.ModelVersion), and the worker's store even holds an artifact under it:
// still the worker answers ErrDrift and no record.
func TestExecutorRejectsVersionDrift(t *testing.T) {
	exec, store, srv := newWorker(t)
	const preModel = "14306c0a5611d5bb" // tiny/fig05a/scheme=BFC at model 0
	old := &harness.Record{
		ManifestEntry: harness.ManifestEntry{Hash: preModel, Name: "tiny/fig05a/scheme=BFC", Scheme: "BFC"},
		Result:        &sim.Result{},
	}
	if err := store.Put(old); err != nil || !store.Has(preModel) {
		t.Fatalf("planting the model-0 artifact: %v", err)
	}
	req := &ExecuteRequest{
		Batch: "t/b000", Suite: *tinySpec(),
		Hashes: []string{preModel},
	}
	if resp, err := exec.Execute(context.Background(), req); !errors.Is(err, ErrDrift) || resp != nil {
		t.Fatalf("direct execute: %+v, err = %v, want no records and ErrDrift", resp, err)
	}
	// Over the wire the 409 must map back to ErrDrift, so the coordinator
	// stops scattering to the drifted worker instead of retrying forever.
	client := NewClient(srv.URL, 10*time.Second)
	if _, err := client.Execute(context.Background(), req); !errors.Is(err, ErrDrift) {
		t.Fatalf("wire execute: err = %v, want ErrDrift", err)
	}
}

func TestExecutorHaveAndRecordEndpoints(t *testing.T) {
	_, store, srv := newWorker(t)
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cs.Jobs[0].Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(rec); err != nil {
		t.Fatal(err)
	}

	client := NewClient(srv.URL, 10*time.Second)
	have, err := client.Have(context.Background(), []string{rec.Hash, "ffffffffffffffff"})
	if err != nil {
		t.Fatal(err)
	}
	if len(have) != 1 || have[0] != rec.Hash {
		t.Fatalf("have = %v, want [%s]", have, rec.Hash)
	}
	got, err := client.Record(context.Background(), rec.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if marshal(t, got) != marshal(t, rec) {
		t.Fatal("fetched record differs from the stored one")
	}
	if _, err := client.Record(context.Background(), "ffffffffffffffff"); err == nil {
		t.Fatal("fetching a missing record succeeded")
	}
}

func TestCoordinatorFleetManifestUnions(t *testing.T) {
	_, wstore, srv := newWorker(t)
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*harness.Record, len(cs.Jobs))
	for i := range cs.Jobs {
		if recs[i], err = cs.Jobs[i].Execute(); err != nil {
			t.Fatal(err)
		}
	}

	cstore, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Split the grid: job 0 lives only on the coordinator, job 1 only on the
	// worker; the fleet-wide manifest must present both.
	if err := cstore.Put(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := wstore.Put(recs[1]); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Store: cstore, Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	entries := coord.FleetManifest(context.Background())
	if len(entries) != 2 {
		t.Fatalf("fleet manifest has %d entries, want 2: %+v", len(entries), entries)
	}
	want := map[string]bool{recs[0].Hash: true, recs[1].Hash: true}
	for _, e := range entries {
		if !want[e.Hash] {
			t.Fatalf("unexpected manifest entry %+v", e)
		}
	}
}

func TestRegisterEndpointAddsWorker(t *testing.T) {
	cstore, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Store: cstore})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Routes()(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, 10*time.Second)
	if err := client.Register(context.Background(), "http://127.0.0.1:19999"); err != nil {
		t.Fatal(err)
	}
	st, err := client.Ping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "coordinator" || len(st.Workers) != 1 || st.Workers[0].URL != "http://127.0.0.1:19999" {
		t.Fatalf("status after register: %+v", st)
	}
	// Garbage URLs are rejected, not silently pooled.
	if err := client.Register(context.Background(), "not a url"); err == nil {
		t.Fatal("registering a garbage URL succeeded")
	}
}

// The fleet manifest is served while workers announce themselves: it once
// sized its result from the registry map without the lock registration writes
// it under. Meaningful under -race; the registered URLs are paths of one local
// worker that answer 404, so every manifest call walks the growing registry.
func TestFleetManifestDuringRegistration(t *testing.T) {
	_, _, wsrv := newWorker(t)
	cstore, err := harness.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Store: cstore})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Routes()(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	const workers = 16
	client := NewClient(srv.URL, 10*time.Second)
	registered := make(chan error, 1)
	go func() {
		for i := 0; i < workers; i++ {
			if err := client.Register(context.Background(), fmt.Sprintf("%s/%d", wsrv.URL, i)); err != nil {
				registered <- err
				return
			}
		}
		registered <- nil
	}()
	for done := false; !done; {
		select {
		case err := <-registered:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		if _, err := client.Manifest(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := coord.Status(); len(st.Workers) != workers {
		t.Fatalf("registered %d workers, want %d", len(st.Workers), workers)
	}
}

// Two suites dispatched concurrently contend for one worker's single
// in-flight slot. The slot is a coordinator-level resource, so the suite
// that parks waiting for capacity is woken by a *different* dispatch's
// result landing — regression test for the missed-wakeup deadlock where a
// parked dispatch with nothing of its own in flight waited forever.
func TestConcurrentDispatchesShareWorkerCapacity(t *testing.T) {
	_, _, srv := newWorker(t)
	svc, _ := newFleetService(t, []string{srv.URL}, func(c *Config) {
		c.InflightPerWorker = 1
	})

	a, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(&service.SuiteSpec{
		Figure: "fig05a", Scale: "tiny", Schemes: []string{"HPCC", "Ideal-FQ"},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{a.ID, b.ID} {
		status := waitState(t, svc, id)
		if status.State != service.StateDone {
			t.Fatalf("suite %s: state %s (%s), want done", id, status.State, status.Error)
		}
		if status.Executed != 2 {
			t.Fatalf("suite %s: executed %d jobs, want 2", id, status.Executed)
		}
	}
}
