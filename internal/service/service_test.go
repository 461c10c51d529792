package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// tinySpec is the standard test submission: a two-scheme Fig 5a panel at tiny
// scale — real simulations, but seconds not minutes.
func tinySpec() *SuiteSpec {
	return &SuiteSpec{Figure: "fig05a", Scale: "tiny", Schemes: []string{"BFC", "DCQCN"}}
}

func newTestService(t *testing.T, dir string, mutate func(*Config)) *Service {
	t.Helper()
	store, err := harness.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store, Workers: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// waitState polls until the suite leaves StateRunning.
func waitState(t testing.TB, svc *Service, id string) SuiteStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		status, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if status.State != StateRunning {
			return status
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("suite %s did not finish in time", id)
	return SuiteStatus{}
}

// readResults decodes a suite's result stream, WriteResults' JSONL, into
// records in job order.
func readResults(svc *Service, id string) ([]*harness.Record, error) {
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

func marshalRecords(t *testing.T, recs []*harness.Record) []byte {
	t.Helper()
	blob, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSubmitComputesThenServesFromCache(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, dir, nil)

	first, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if first.Total != 2 || first.Cached != 0 {
		t.Fatalf("fresh submission: %+v", first)
	}
	done := waitState(t, svc, first.ID)
	if done.State != StateDone || done.Executed != 2 || done.Cached != 0 {
		t.Fatalf("first run ended %+v", done)
	}
	recs, err := readResults(svc, first.ID)
	if err != nil {
		t.Fatal(err)
	}

	// The acceptance criterion: served records must be byte-identical to a
	// direct harness run of the same grid (what bfcsim -fig executes).
	scale, _ := experiments.ScaleByName("tiny")
	jobs := experiments.Fig05Jobs(scale, experiments.Fig05aGoogleIncast,
		[]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
	direct, err := (&harness.Runner{Parallel: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalRecords(t, recs), marshalRecords(t, direct); string(got) != string(want) {
		t.Fatal("served records differ from a direct harness run of the same grid")
	}

	// Resubmission must perform zero simulation runs.
	execBefore := svc.Stats().JobsExecuted
	second, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || second.Cached != 2 || second.Executed != 0 {
		t.Fatalf("resubmission was not fully cached: %+v", second)
	}
	if got := svc.Stats().JobsExecuted; got != execBefore {
		t.Fatalf("resubmission executed %d simulations", got-execBefore)
	}
	if second.Digest != first.Digest {
		t.Fatalf("suite digests differ: %s vs %s", second.Digest, first.Digest)
	}
	recs2, err := readResults(svc, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalRecords(t, recs2)) != string(marshalRecords(t, recs)) {
		t.Fatal("cached records differ from the originals")
	}
}

// TestFreshServiceServesFromStoreArtifacts: a new Service instance over the
// same store directory serves a previously computed suite without simulating,
// and the served records re-encode byte-identically.
func TestFreshServiceServesFromStoreArtifacts(t *testing.T) {
	dir := t.TempDir()
	svc1 := newTestService(t, dir, nil)
	first, err := svc1.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc1, first.ID)
	recs1, err := readResults(svc1, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2 := newTestService(t, dir, nil)
	second, err := svc2.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || second.Cached != 2 {
		t.Fatalf("store-backed resubmission was not fully cached: %+v", second)
	}
	if svc2.Stats().JobsExecuted != 0 {
		t.Fatal("store-backed resubmission ran simulations")
	}
	recs2, err := readResults(svc2, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalRecords(t, recs2)) != string(marshalRecords(t, recs1)) {
		t.Fatal("records decoded from store artifacts re-encode differently")
	}
}

// preModelHashes are the content hashes tinySpec's jobs had before job hashes
// mixed in sim.ModelVersion — model 0 — as testdata/registry_identities.golden
// of package experiments recorded them then.
var preModelHashes = map[string]string{
	"tiny/fig05a/scheme=BFC":   "14306c0a5611d5bb",
	"tiny/fig05a/scheme=DCQCN": "fdc69cc0cbfe8c13",
}

// plantPreModelStore fills the store directory dir as a binary from before
// sim.ModelVersion left it: one artifact per tinySpec job under its model-0
// hash, in the record layout of that time (no "model" key).
func plantPreModelStore(t *testing.T, dir string, jobs []harness.Job) {
	t.Helper()
	type preModelRecord struct {
		Name   string            `json:"name"`
		Hash   string            `json:"hash"`
		Scheme string            `json:"scheme"`
		Seed   int64             `json:"seed"`
		Meta   map[string]string `json:"meta,omitempty"`
		Result *sim.Result       `json:"result"`
	}
	for _, j := range jobs {
		hash, ok := preModelHashes[j.Name]
		if !ok || hash == j.Hash() {
			t.Fatalf("job %q (hash %s) has no distinct model-0 hash", j.Name, j.Hash())
		}
		line, err := json.Marshal(&preModelRecord{j.Name, hash, j.Scheme.String(), j.Seed(), j.Meta, &sim.Result{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, hash+".jsonl"), append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPreModelStoreIsAMiss: a store filled before job hashes named their
// model holds nothing this model serves. Its artifacts list as model 0, a
// resumed Runner re-executes every job, and a submission counts every job a
// miss. (The fleet worker's side is TestExecutorRejectsVersionDrift.)
func TestPreModelStoreIsAMiss(t *testing.T) {
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	plantPreModelStore(t, dir, cs.Jobs)
	store, err := harness.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil || len(entries) != len(cs.Jobs) {
		t.Fatalf("store lists %d entries (%v), want the %d planted", len(entries), err, len(cs.Jobs))
	}
	for _, e := range entries {
		if e.Model != 0 || e.Hash != preModelHashes[e.Name] {
			t.Fatalf("planted artifact lists as %+v, want model 0 under %s", e, preModelHashes[e.Name])
		}
	}
	cached := 0
	runner := &harness.Runner{Parallel: 2, Store: store, Resume: true, Progress: func(p harness.Progress) {
		if p.Cached {
			cached++
		}
	}}
	recs, err := runner.Run(cs.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("resume took %d of %d jobs from model-0 artifacts", cached, len(cs.Jobs))
	}
	for i, rec := range recs {
		if rec.Model != sim.ModelVersion || rec.Hash != cs.Jobs[i].Hash() {
			t.Fatalf("resumed run produced %+v, want model %d under %s", rec.ManifestEntry, sim.ModelVersion, cs.Jobs[i].Hash())
		}
	}

	dir = t.TempDir()
	plantPreModelStore(t, dir, cs.Jobs)
	svc := newTestService(t, dir, nil)
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if status.Cached != 0 || svc.metrics.cacheHits.Value() != 0 || svc.metrics.cacheMisses.Value() != uint64(len(cs.Jobs)) {
		t.Fatalf("submission over model-0 artifacts: %+v, %d hits, %d misses; want every job a miss",
			status, svc.metrics.cacheHits.Value(), svc.metrics.cacheMisses.Value())
	}
	if done := waitState(t, svc, status.ID); done.State != StateDone || done.Executed != len(cs.Jobs) {
		t.Fatalf("submission over model-0 artifacts ended %+v, want every job executed", done)
	}
}

// storedSuite puts a record for each of n hand-built jobs into the store
// under dir and returns a suite of those jobs, so every submission of it is
// answered from the store without a builder being called. pad lengthens each
// record's meta, and so its artifact.
func storedSuite(t *testing.T, dir string, n, pad int) *CompiledSuite {
	t.Helper()
	store, err := harness.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, hashes := make([]harness.Job, n), make([]string, n)
	for i := range jobs {
		jobs[i] = harness.Job{
			Name:   fmt.Sprintf("test/stored/job=%d", i),
			Scheme: sim.SchemeBFC,
			Meta:   map[string]string{"job": fmt.Sprint(i), "pad": strings.Repeat("x", pad)},
		}
		hashes[i] = jobs[i].Hash()
		rec := &harness.Record{ManifestEntry: harness.ManifestEntry{
			Hash: hashes[i], Name: jobs[i].Name, Scheme: jobs[i].Scheme.String(), Model: sim.ModelVersion, Meta: jobs[i].Meta,
		}}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// The jobs have no builders, which validation refuses: they are only
	// ever served from the store.
	return &CompiledSuite{Title: "stored", Figure: "test", Jobs: jobs, Hashes: hashes, Digest: suiteDigest(hashes)}
}

// sealed is a hand-assembled suite as Compile leaves one: validated, with
// its job hashes and digest.
func sealed(cs *CompiledSuite) *CompiledSuite {
	if err := cs.seal(); err != nil {
		panic(err)
	}
	return cs
}

// TestListStatusesKeepsSubmissionOrderPastSixDigits: suite IDs grow a
// seventh digit after s999999, where their lexical order stops being the
// order they were submitted in; the list keeps submission order.
func TestListStatusesKeepsSubmissionOrderPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	cs := storedSuite(t, dir, 1, 0)
	svc := newTestService(t, dir, nil)
	svc.mu.Lock()
	svc.nextID = 999_997
	svc.mu.Unlock()
	var want []string
	for i := 0; i < 4; i++ {
		status, err := svc.SubmitCompiled(cs)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, status.ID)
	}
	if want[0] != "s999998" || want[3] != "s1000001" {
		t.Fatalf("submitted %v, want s999998 … s1000001", want)
	}
	var got []string
	for _, status := range svc.ListStatuses() {
		got = append(got, status.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ListStatuses order %v, want submission order %v", got, want)
	}
}

// TestResultsAreTheArtifactsOnMissAndHit: a fetch writes the artifacts' bytes
// in job order whether the store parsed them at submission (a fresh Service
// over an existing store) or serves the bytes it remembered, fetch after
// fetch, for artifacts longer than the store's compare chunk.
func TestResultsAreTheArtifactsOnMissAndHit(t *testing.T) {
	dir := t.TempDir()
	cs := storedSuite(t, dir, 3, 80<<10)
	var want []byte
	for i := range cs.Jobs {
		artifact, err := os.ReadFile(filepath.Join(dir, cs.Jobs[i].Hash()+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, artifact...)
	}
	svc := newTestService(t, dir, nil)
	status, err := svc.SubmitCompiled(cs)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone || status.Cached != len(cs.Jobs) {
		t.Fatalf("submission was not served from the store: %+v", status)
	}
	for fetch := 1; fetch <= 2; fetch++ {
		var body bytes.Buffer
		n, err := svc.WriteResults(&body, status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(want)) || !bytes.Equal(body.Bytes(), want) {
			t.Fatalf("fetch %d wrote %d bytes (reported %d), not the %d bytes of the artifacts in job order", fetch, body.Len(), n, len(want))
		}
	}
}

// blockingSuite builds a controllable compiled suite: each job's Flows
// builder signals started and then blocks until released.
func blockingSuite(n int, started chan<- string, release <-chan struct{}) *CompiledSuite {
	jobs := make([]harness.Job, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("test/block/job=%d", i)
		jobs = append(jobs, harness.Job{
			Name:   name,
			Scheme: sim.SchemeBFC,
			Meta:   map[string]string{"job": fmt.Sprint(i)},
			Topology: func() *topology.Topology {
				return topology.NewSingleSwitch(topology.SingleSwitchConfig{
					NumHosts: 2, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
				})
			},
			Flows: func(topo *topology.Topology) []*packet.Flow {
				started <- name
				<-release
				hosts := topo.Hosts()
				return []*packet.Flow{{ID: 1, Src: hosts[0], Dst: hosts[1], Size: units.KB}}
			},
			Options: []func(*sim.Options){func(o *sim.Options) {
				o.Duration = 10 * units.Microsecond
				o.Drain = 50 * units.Microsecond
			}},
		})
	}
	return sealed(&CompiledSuite{Title: "block", Figure: "test", Scale: "tiny", Jobs: jobs})
}

func TestCancelStopsQueuedWork(t *testing.T) {
	svc := newTestService(t, t.TempDir(), func(c *Config) { c.Workers = 1 })
	started := make(chan string, 8)
	release := make(chan struct{})
	status, err := svc.SubmitCompiled(blockingSuite(3, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // first job is now in a worker; two more are queued
	if err := svc.Cancel(status.ID); err != nil {
		t.Fatal(err)
	}
	close(release) // let the in-flight job finish
	final := waitState(t, svc, status.ID)
	if final.State != StateCancelled {
		t.Fatalf("suite ended %s, want cancelled", final.State)
	}
	if final.Done != 0 {
		t.Fatalf("cancelled suite reports %d done jobs", final.Done)
	}
	if err := svc.Cancel(status.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if _, err := readResults(svc, status.ID); err == nil {
		t.Fatal("results of a cancelled suite were served")
	}
	// The in-flight job's record must still have landed in the store for
	// future submissions.
	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, err := svc.Store().List()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight record never reached the store (%d entries)", len(entries))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMaxActiveSuitesLimit(t *testing.T) {
	svc := newTestService(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.MaxActiveSuites = 1
	})
	started := make(chan string, 8)
	release := make(chan struct{})
	first, err := svc.SubmitCompiled(blockingSuite(1, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Submit(tinySpec()); err != ErrBusy {
		t.Fatalf("second concurrent suite: got %v, want ErrBusy", err)
	}
	close(release)
	if done := waitState(t, svc, first.ID); done.State != StateDone {
		t.Fatalf("blocking suite ended %s: %s", done.State, done.Error)
	}
	// Capacity is free again.
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, svc, status.ID); final.State != StateDone {
		t.Fatalf("follow-up suite ended %s: %s", final.State, final.Error)
	}
}

// A suite carries the job hashes Compile took; one assembled without them is
// refused, not looked up under missing keys.
func TestSubmitRefusesUnhashedSuite(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	cs := blockingSuite(2, nil, nil)
	cs.Hashes = nil
	if _, err := svc.SubmitCompiled(cs); err == nil || !strings.Contains(err.Error(), "0 job hashes for 2 jobs") {
		t.Fatalf("a suite without job hashes: got %v, want it refused", err)
	}
}

// TestSuiteJobLimit: a suite one job over the limit is refused, the limit
// named in the error, before the store is read for any of its jobs — job 0's
// artifact is damaged, and reading it would fail the submission as storage.
func TestSuiteJobLimit(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	jobs := blockingSuite(maxSuiteJobs+1, nil, nil).Jobs
	if err := os.WriteFile(filepath.Join(svc.Store().Dir(), jobs[0].Hash()+".jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := svc.SubmitCompiled(&CompiledSuite{Title: "huge", Jobs: jobs})
	if err == nil || errors.Is(err, ErrStorage) || !strings.Contains(err.Error(), "4097 jobs, limit 4096") {
		t.Fatalf("4097-job suite: got %v, want the job limit", err)
	}
	if n := svc.Stats().Suites; n != 0 {
		t.Fatalf("a refused suite was registered (%d suites)", n)
	}
}

func TestSubscribeStreamsProgressAndEnd(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel, err := svc.Subscribe(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if ch == nil {
		// The suite finished before we subscribed; nothing to stream.
		return
	}
	var jobs int
	var sawEnd bool
	for ev := range ch {
		switch ev.Type {
		case "job":
			jobs++
		case "end":
			sawEnd = true
			if ev.State != StateDone {
				t.Fatalf("end event state %s: %s", ev.State, ev.Error)
			}
		}
	}
	if !sawEnd {
		t.Fatal("subscription closed without an end event")
	}
	if jobs == 0 {
		t.Fatal("no job events before the end event")
	}
	// Subscribing after the end returns a nil channel and the final status.
	final, ch2, cancel2, err := svc.Subscribe(status.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if ch2 != nil || final.State != StateDone {
		t.Fatalf("late subscription: ch=%v state=%s", ch2, final.State)
	}
}

func TestFailedJobFailsSuite(t *testing.T) {
	svc := newTestService(t, t.TempDir(), func(c *Config) { c.Workers = 1 })
	jobs := []harness.Job{{
		Name:   "test/panic",
		Scheme: sim.SchemeBFC,
		Topology: func() *topology.Topology {
			return topology.NewSingleSwitch(topology.SingleSwitchConfig{
				NumHosts: 2, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
			})
		},
		Flows: func(topo *topology.Topology) []*packet.Flow {
			panic("builder misconfigured")
		},
	}}
	status, err := svc.SubmitCompiled(sealed(&CompiledSuite{
		Title: "panic", Figure: "test", Scale: "tiny", Jobs: jobs,
	}))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, svc, status.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "panicked: builder misconfigured") {
		t.Fatalf("suite ended %+v, want failed with the builder's panic as its error", final)
	}
	// The panic cost the suite, not the daemon: the same worker goes on to
	// run the next submission.
	next, err := svc.Submit(&SuiteSpec{Figure: "fig03", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, svc, next.ID); done.State != StateDone || done.Executed != done.Total {
		t.Fatalf("suite after the panic ended %+v", done)
	}
}

// TestServesMigratedFigure submits a figure that simulated directly, outside
// the harness, before the figure table and so could not be served: every job
// executes once, and a resubmission is answered from the cache alone.
func TestServesMigratedFigure(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	spec := &SuiteSpec{Figure: "fig11", Scale: "tiny"}
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, first.ID)
	if done.State != StateDone || done.Total == 0 || done.Executed != done.Total || done.Cached != 0 {
		t.Fatalf("first submission ended %+v", done)
	}
	second, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || second.Cached != second.Total || second.Executed != 0 {
		t.Fatalf("resubmission was not fully cached: %+v", second)
	}
}

func TestSuiteHistoryIsBounded(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, dir, func(c *Config) { c.MaxSuiteHistory = 3 })
	first, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, first.ID)
	// Flood with fully-cached submissions; the service must forget old
	// terminal suites instead of pinning every record set forever.
	var lastID string
	for i := 0; i < 10; i++ {
		status, err := svc.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		if status.State != StateDone {
			t.Fatalf("submission %d not cached: %+v", i, status)
		}
		lastID = status.ID
	}
	if n := len(svc.ListStatuses()); n != 3 {
		t.Fatalf("service retains %d suites, want MaxSuiteHistory=3", n)
	}
	if _, err := svc.Status(first.ID); err == nil {
		t.Fatal("oldest suite was not evicted")
	}
	if _, err := readResults(svc, lastID); err != nil {
		t.Fatalf("newest suite evicted too eagerly: %v", err)
	}
}

func TestSubmitSurfacesStorageFaults(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, dir, nil)
	first, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, first.ID)
	svc.Close()

	// Corrupt one artifact, then resubmit through a fresh service (empty
	// LRU): the cache lookup must fail as a storage error, not a spec error.
	entries, err := svc.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, entries[0].Hash+".jsonl"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc2 := newTestService(t, dir, nil)
	_, err = svc2.Submit(tinySpec())
	if err == nil {
		t.Fatal("corrupt artifact went unnoticed")
	}
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("storage fault not tagged ErrStorage: %v", err)
	}
}

// TestDamagedArtifactsAreRefusedNotServed: whatever is wrong with an artifact
// — cut short, emptied, overwritten — a submission naming it fails with
// ErrStorage, and a suite that finished before the damage streams no byte of
// it.
func TestDamagedArtifactsAreRefusedNotServed(t *testing.T) {
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(line []byte) []byte{
		"truncated":    func(line []byte) []byte { return line[:len(line)/2] },
		"unterminated": func(line []byte) []byte { return line[:len(line)-1] },
		"empty":        func([]byte) []byte { return nil },
	}
	for name, cut := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			svc := newTestService(t, dir, nil)
			first, err := svc.Submit(tinySpec())
			if err != nil {
				t.Fatal(err)
			}
			if done := waitState(t, svc, first.ID); done.State != StateDone {
				t.Fatalf("first run ended %+v", done)
			}
			// Damage the second job's artifact: the first is intact and would
			// be streamed before the fault is met.
			path := filepath.Join(dir, cs.Jobs[1].Hash()+".jsonl")
			line, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, cut(line), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Submit(tinySpec()); !errors.Is(err, ErrStorage) {
				t.Fatalf("submission over a damaged artifact: %v, want ErrStorage", err)
			}
			var body bytes.Buffer
			n, err := svc.WriteResults(&body, first.ID)
			if !errors.Is(err, ErrStorage) {
				t.Fatalf("fetch over a damaged artifact: %v, want ErrStorage", err)
			}
			intact, err := os.ReadFile(filepath.Join(dir, cs.Jobs[0].Hash()+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(body.Len()) || !bytes.Equal(body.Bytes(), intact) {
				t.Fatalf("fetch wrote %d bytes (reported %d), want exactly the intact first artifact's %d", body.Len(), n, len(intact))
			}
			if entries, err := svc.Store().List(); err != nil || len(entries) != 1 || entries[0].Hash != cs.Jobs[0].Hash() {
				t.Fatalf("store lists %+v (%v), want only the intact artifact", entries, err)
			}
		})
	}
}

func TestSuiteSpecValidation(t *testing.T) {
	bad := []string{
		``,                                       // empty
		`{`,                                      // malformed
		`{}`,                                     // neither figure nor scenario
		`{"figure":"fig05a","scenario":{}}`,      // both
		`{"figure":"fig99"}`,                     // unknown figure
		`{"figure":"fig01"}`,                     // static data: no jobs to serve
		`{"figure":"fig05a","scale":"huge"}`,     // unknown scale
		`{"figure":"fig05a","schemes":["NOPE"]}`, // unknown scheme
		`{"figure":"fig08","schemes":["BFC"]}`,   // fixed-scheme figure
		`{"figure":"fig05a","extra_axis":true}`,  // unknown field
		`{"scenario":{"name":""}}`,               // invalid scenario
		`{"figure":"fig05a","schemes":["BFC","BFC"]}`,    // duplicate scheme
		`{"figure":"` + string(make([]byte, 300)) + `"}`, // oversized name
	}
	for _, in := range bad {
		spec, err := ParseSuiteSpec([]byte(in))
		if err == nil {
			if _, cerr := spec.Compile(); cerr == nil {
				t.Fatalf("bad spec accepted: %s", in)
			}
		}
	}
	good := `{"name":"demo","figure":"fig05a","scale":"tiny","schemes":["BFC","DCQCN"]}`
	spec, err := ParseSuiteSpec([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Jobs) != 2 || cs.Figure != "fig05a" || cs.Scale != "tiny" || cs.Title != "demo" {
		t.Fatalf("compiled suite: %+v", cs)
	}
}

// runDoc is a valid run suite with one field of its run replaced by field.
func runDoc(field string) string {
	run := map[string]string{
		"topology": `"clos:2x2x4"`, "workload": `"google"`, "load": `0.6`, "duration_us": `150`,
		"drain_us": `400`, "seed": `1`, "queues": `32`, "buffer_mb": `12`,
	}
	if k, v, ok := strings.Cut(field, "="); ok {
		run[k] = v
	}
	var parts []string
	for k, v := range run {
		parts = append(parts, fmt.Sprintf("%q:%s", k, v))
	}
	return `{"schemes":["BFC"],"run":{` + strings.Join(parts, ",") + `}}`
}

// TestRunSuiteRejectsOutsideInput holds the "run" form to the bounds an
// untrusted submission must meet: each document fails ParseSuiteSpec or
// Compile with an error, and does so without building its fabric: the whole
// attempt allocates about 30 times, building even a 64-host star about 500.
func TestRunSuiteRejectsOutsideInput(t *testing.T) {
	good := runDoc("")
	if spec, err := ParseSuiteSpec([]byte(good)); err != nil {
		t.Fatal(err)
	} else if cs, err := spec.Compile(); err != nil || len(cs.Jobs) != 1 || cs.Figure != "run" || cs.Scale != "" || !cs.Shippable() {
		t.Fatalf("valid run suite: %+v, %v", cs, err)
	}
	bad := []string{
		runDoc(`topology="fattree:1000000"`),
		runDoc(`topology="clos:1000x1x1000"`),
		runDoc(`duration_us=0`),
		runDoc(`duration_us=-1`),
		runDoc(`duration_us=1e12`),
		runDoc(`drain_us=1e12`),
		runDoc(`load=-0.1`),
		runDoc(`load=1.5`),
		runDoc(`queues=0`),
		runDoc(`queues=1000000`),
		runDoc(`buffer_mb=0`),
		runDoc(`workload="nope"`),
		runDoc(`fanin=100`), // unknown field inside run
		runDoc(`scenario={"name":""}`),
		runDoc(`topology="` + strings.Repeat("x", 300) + `"`),
		strings.Replace(runDoc(""), `{"schemes"`, `{"figure":"fig05a","schemes"`, 1),
		strings.Replace(runDoc(""), `{"schemes"`, `{"scale":"tiny","schemes"`, 1),
	}
	for _, doc := range bad {
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			var spec *SuiteSpec
			if spec, err = ParseSuiteSpec([]byte(doc)); err == nil {
				_, err = spec.Compile()
			}
		})
		if err == nil {
			t.Errorf("accepted: %.120s", doc)
		} else if allocs > 200 {
			t.Errorf("%v: %.0f allocations to refuse; was a fabric built?", err, allocs)
		}
	}
}

func TestScenarioSuiteCompiles(t *testing.T) {
	blob := `{
		"name": "flap-suite",
		"scale": "tiny",
		"schemes": ["BFC", "DCQCN"],
		"scenario": {
			"name": "flap",
			"events": [
				{"at_us": 30, "kind": "link_down", "link": {"a": "tor0", "b": "spine0"}},
				{"at_us": 90, "kind": "link_up", "link": {"a": "tor0", "b": "spine0"}}
			]
		}
	}`
	spec, err := ParseSuiteSpec([]byte(blob))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Jobs) != 2 || cs.Figure != "scenario/flap" {
		t.Fatalf("compiled scenario suite: figure=%s jobs=%d", cs.Figure, len(cs.Jobs))
	}
	if cs.Jobs[0].Meta["point"] == "" {
		t.Fatal("scenario jobs must carry their point's digest, which covers the spec, in Meta")
	}
}
