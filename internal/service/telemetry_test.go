package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"bfc/internal/sim"
	"bfc/internal/telemetry"
)

func tracedTinySpec() *SuiteSpec {
	spec := tinySpec()
	spec.Trace = true
	return spec
}

// TestTracedSuiteEndToEnd drives the full flight-recorder path: a traced
// submission executes jobs with recorders attached, Trace serves their events,
// and — because tracing is hash-neutral — the traced run populates the same
// cache a later untraced submission hits.
func TestTracedSuiteEndToEnd(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)

	first, err := svc.Submit(tracedTinySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, svc, first.ID)
	if done.State != StateDone || done.Executed != 2 {
		t.Fatalf("traced suite ended %+v", done)
	}
	recs, err := readResults(svc, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		events, cfg, err := svc.Trace(first.ID, rec.Name)
		if err != nil {
			t.Fatalf("trace of %s: %v", rec.Name, err)
		}
		if len(events) == 0 {
			t.Fatalf("trace of %s is empty", rec.Name)
		}
		if cfg.RunName != first.ID+"/"+rec.Name {
			t.Fatalf("trace run name %q", cfg.RunName)
		}
		// The trace must be a loadable Chrome trace document with named nodes.
		var buf bytes.Buffer
		if err := telemetry.WriteChromeTrace(&buf, cfg, events); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("trace of %s is not valid JSON: %v", rec.Name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("trace of %s has no traceEvents", rec.Name)
		}
	}
	if _, _, err := svc.Trace(first.ID, "no/such/job"); err == nil {
		t.Fatal("trace of an unknown job succeeded")
	}

	// Untraced resubmission: fully cached off the traced run's artifacts, and
	// it has no trace of its own.
	second, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || second.Cached != 2 {
		t.Fatalf("untraced resubmission missed the traced run's cache: %+v", second)
	}
	if _, _, err := svc.Trace(second.ID, recs[0].Name); !errors.Is(err, ErrNotTraced) {
		t.Fatalf("untraced suite trace: %v, want ErrNotTraced", err)
	}

	// Traced resubmission: the jobs are cache hits, so they never executed and
	// have nothing recorded.
	third, err := svc.Submit(tracedTinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if third.State != StateDone || third.Cached != 2 {
		t.Fatalf("traced resubmission not cached: %+v", third)
	}
	if _, _, err := svc.Trace(third.ID, recs[0].Name); !errors.Is(err, ErrNotTraced) {
		t.Fatalf("cached-job trace: %v, want ErrNotTraced", err)
	}

	// The instrument set moved with the work.
	var text bytes.Buffer
	svc.Metrics().WriteText(&text)
	metrics := text.String()
	for _, want := range []string{
		"bfcd_suites_submitted_total 3",
		`bfcd_suites_completed_total{state="done"} 3`,
		"bfcd_jobs_executed_total 2",
		"bfcd_jobs_cached_total 4",
		"bfcd_cache_misses_total 2",
		"bfcd_cache_hits_total 4",
		"bfcd_active_suites 0",
		"bfcd_workers 2",
		"bfcd_build_info{",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}
	// One counter, read twice: the stats document shows what /metrics shows.
	if got := svc.Stats().JobsExecuted; got != 2 {
		t.Fatalf("Stats.JobsExecuted = %d beside bfcd_jobs_executed_total 2", got)
	}
}

// TestTracePendingWhileExecuting pins the 409 half of the trace state machine
// with a job parked inside a worker.
func TestTracePendingWhileExecuting(t *testing.T) {
	svc := newTestService(t, t.TempDir(), func(c *Config) { c.Workers = 1 })
	started := make(chan string, 8)
	release := make(chan struct{})
	cs := blockingSuite(1, started, release)
	cs.Trace = true
	status, err := svc.SubmitCompiled(cs)
	if err != nil {
		t.Fatal(err)
	}
	name := <-started
	if _, _, err := svc.Trace(status.ID, name); !errors.Is(err, ErrTracePending) {
		t.Fatalf("in-flight job trace: %v, want ErrTracePending", err)
	}
	close(release)
	final := waitState(t, svc, status.ID)
	if final.State != StateDone {
		t.Fatalf("suite ended %s: %s", final.State, final.Error)
	}
	events, _, err := svc.Trace(status.ID, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("finished blocking job recorded nothing")
	}
}

// TestHTTPTelemetryEndpoints exercises /metrics, /api/v1/version and the trace
// route over a real server, including the status-code mapping.
func TestHTTPTelemetryEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())

	var info Version
	if err := getJSON(ts.URL+"/api/v1/version", &info); err != nil {
		t.Fatal(err)
	}
	if info.Module == "" || info.GoVersion == "" || info.ModelVersion != sim.ModelVersion {
		t.Fatalf("version endpoint returned %+v", info)
	}

	status, raw := postSuite(t, ts, `{"figure":"fig05a","scale":"tiny","schemes":["BFC"],"trace":true}`)
	if raw.StatusCode != http.StatusAccepted {
		t.Fatalf("traced submit: %s", raw.Status)
	}
	waitHTTPDone(t, ts, status.ID)

	var recs []struct {
		Name string `json:"Name"`
	}
	res, err := http.Get(ts.URL + "/api/v1/suites/" + status.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(res.Body)
	for dec.More() {
		var rec struct {
			Name string `json:"Name"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	res.Body.Close()
	if len(recs) != 1 {
		t.Fatalf("results returned %d records", len(recs))
	}

	traceURL := ts.URL + "/api/v1/suites/" + status.ID + "/trace/" + recs[0].Name
	tr, err := http.Get(traceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %s", tr.Status)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("served trace has no traceEvents")
	}

	// Raw JSONL form round-trips through the exporter's reader.
	jr, err := http.Get(traceURL + "?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if ct := jr.Header.Get("Content-Type"); ct != "application/jsonl" {
		t.Fatalf("jsonl trace content type %q", ct)
	}
	events, err := telemetry.ReadJSONL(jr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("jsonl trace is empty")
	}

	// Missing suite and missing job both map to 404.
	for _, path := range []string{
		"/api/v1/suites/nope/trace/whatever",
		"/api/v1/suites/" + status.ID + "/trace/no/such/job",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %s, want 404", path, resp.Status)
		}
	}

	// /metrics speaks Prometheus text exposition and saw this test's traffic.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	metrics := buf.String()
	for _, want := range []string{
		"# TYPE bfcd_suites_submitted_total counter",
		"bfcd_suites_submitted_total 1",
		"bfcd_jobs_executed_total 1",
		`bfcd_http_requests_total{code="200"}`,
		`bfcd_http_requests_total{code="404"}`,
		"bfcd_http_request_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}
}
