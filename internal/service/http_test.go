package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/harness"
)

func newTestServer(t *testing.T, dir string) (*httptest.Server, *Service) {
	t.Helper()
	svc := newTestService(t, dir, nil)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postSuite(t *testing.T, ts *httptest.Server, body string) (SuiteStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/suites", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status SuiteStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
	}
	return status, resp
}

func TestHTTPRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts, svc := newTestServer(t, dir)

	// Figures index.
	resp, err := http.Get(ts.URL + "/api/v1/figures")
	if err != nil {
		t.Fatal(err)
	}
	var idx FigureIndex
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The index is the figure table minus the entries with nothing to run.
	var want []string
	for _, f := range experiments.Figures() {
		if f.Jobs != nil {
			want = append(want, f.Key)
		}
	}
	var got []string
	for _, f := range idx.Figures {
		got = append(got, f.Key)
	}
	if !slices.Equal(got, want) || slices.Contains(got, "fig01") || !slices.Contains(got, "fig11") {
		t.Fatalf("figure index lists %v, want %v", got, want)
	}

	// Submit and follow the SSE stream to completion.
	body := `{"figure":"fig05a","scale":"tiny","schemes":["BFC","DCQCN"]}`
	status, raw := postSuite(t, ts, body)
	if raw.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", raw.Status)
	}
	events, err := http.Get(ts.URL + "/api/v1/suites/" + status.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	if ct := events.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var sawJob, sawEnd bool
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Type == "job" {
			sawJob = true
		}
		if ev.Type == "end" {
			sawEnd = true
			if ev.State != StateDone {
				t.Fatalf("suite ended %s: %s", ev.State, ev.Error)
			}
			break
		}
	}
	if !sawEnd {
		t.Fatalf("no end event (sawJob=%v, scan err %v)", sawJob, sc.Err())
	}

	// Cold: results are the store's artifacts, byte for byte, in job order.
	assertResultsAreTheArtifacts(t, ts.URL, status.ID, dir)

	// Store listing matches.
	var entries []harness.ManifestEntry
	if err := getJSON(ts.URL+"/api/v1/store", &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("store listing has %d entries", len(entries))
	}

	// Resubmission over HTTP is fully cached.
	second, raw2 := postSuite(t, ts, body)
	if raw2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s", raw2.Status)
	}
	if second.State != StateDone || second.Cached != 2 || second.Executed != 0 {
		t.Fatalf("resubmission: %+v", second)
	}
	// Warm: the same bytes, now read back rather than just written.
	assertResultsAreTheArtifacts(t, ts.URL, second.ID, dir)
	// SSE on a finished suite yields an immediate end event.
	done, err := http.Get(ts.URL + "/api/v1/suites/" + second.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer done.Body.Close()
	var gotEnd bool
	ds := bufio.NewScanner(done.Body)
	for ds.Scan() {
		if strings.Contains(ds.Text(), `"end"`) {
			gotEnd = true
			break
		}
	}
	if !gotEnd {
		t.Fatal("no end event for a finished suite")
	}

	// Stats reflect the work split.
	var stats Stats
	if err := getJSON(ts.URL+"/api/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsExecuted != 2 || stats.Suites != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	_ = svc
}

// assertResultsAreTheArtifacts fetches a tinySpec suite's results and holds
// the body to the one thing it may be: the concatenation of the files under
// dir that the suite's jobs hash to, in job order.
func assertResultsAreTheArtifacts(t *testing.T, base, id, dir string) {
	t.Helper()
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := range cs.Jobs {
		artifact, err := os.ReadFile(filepath.Join(dir, cs.Jobs[i].Hash()+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, artifact...)
	}
	res, err := http.Get(base + "/api/v1/suites/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); res.StatusCode != http.StatusOK || ct != "application/jsonl" {
		t.Fatalf("results: %s, content type %q", res.Status, ct)
	}
	got, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("suite %s: the %d served bytes are not the %d bytes of its artifacts in job order", id, len(got), len(want))
	}
}

// TestHTTPResultsOverDamagedStore: an artifact that went bad after its suite
// finished costs the fetch, never the reader's trust in a line. Met before the
// first byte it is a 500; met later, the response is aborted, so the client's
// read fails on a body that holds whole intact artifacts and nothing else.
func TestHTTPResultsOverDamagedStore(t *testing.T) {
	dir := t.TempDir()
	ts, svc := newTestServer(t, dir)
	status, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, svc, status.ID); done.State != StateDone {
		t.Fatalf("suite ended %+v", done)
	}
	cs, err := tinySpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{filepath.Join(dir, cs.Jobs[0].Hash()+".jsonl"), filepath.Join(dir, cs.Jobs[1].Hash()+".jsonl")}
	intact, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	fetch := func() (*http.Response, []byte, error) {
		res, err := http.Get(ts.URL + "/api/v1/suites/" + status.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		return res, body, err
	}

	if err := os.WriteFile(paths[1], intact[:len(intact)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	res, body, err := fetch()
	if res.StatusCode != http.StatusOK || err == nil || !bytes.HasPrefix(intact, body) {
		t.Fatalf("fault behind the first artifact: %s, read error %v, %d bytes; want an aborted 200 carrying at most the first artifact", res.Status, err, len(body))
	}

	if err := os.WriteFile(paths[0], nil, 0o644); err != nil {
		t.Fatal(err)
	}
	res, body, err = fetch()
	if res.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(string(body), `"error"`) {
		t.Fatalf("fault at the first artifact: %s, read error %v, body %q; want a 500 with an error document", res.Status, err, body)
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())

	// Malformed and invalid submissions.
	for _, body := range []string{`{`, `{}`, `{"figure":"fig99"}`, `{"figure":"fig05a","bogus":1}`} {
		_, resp := postSuite(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q: %s, want 400", body, resp.Status)
		}
	}

	// Unknown suite.
	for _, path := range []string{"/api/v1/suites/nope", "/api/v1/suites/nope/results", "/api/v1/suites/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %s, want 404", path, resp.Status)
		}
	}

	// Cancelling a finished suite conflicts.
	status, _ := postSuite(t, ts, `{"figure":"fig05a","scale":"tiny","schemes":["BFC"]}`)
	waitHTTPDone(t, ts, status.ID)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/suites/"+status.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done suite: %s, want 409", resp.Status)
	}

	// Results of a running/unknown state: covered above; an oversized body is
	// rejected.
	big := strings.NewReader(`{"figure":"` + strings.Repeat("x", MaxSuiteSpecBytes+1) + `"}`)
	bigResp, err := http.Post(ts.URL+"/api/v1/suites", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	bigResp.Body.Close()
	if bigResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %s, want 413", bigResp.Status)
	}
}

func waitHTTPDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	for i := 0; i < 24000; i++ {
		var status SuiteStatus
		if err := getJSON(ts.URL+"/api/v1/suites/"+id, &status); err != nil {
			t.Fatal(err)
		}
		if status.State != StateRunning {
			if status.State != StateDone {
				t.Fatalf("suite ended %s: %s", status.State, status.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("suite %s did not finish", id)
}

func TestBusyReturns429WithRetryAfter(t *testing.T) {
	svc := newTestService(t, t.TempDir(), func(c *Config) {
		c.Workers = 1
		c.MaxActiveSuites = 1
	})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)

	// Occupy the only suite slot with a suite that blocks until released.
	started := make(chan string, 1)
	release := make(chan struct{})
	first, err := svc.SubmitCompiled(blockingSuite(1, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Saturated: the submit must come back 429 with a machine-readable
	// Retry-After, so clients (bfcctl's retry loop) know when to return.
	_, resp := postSuite(t, ts, `{"figure":"fig05a","scale":"tiny","schemes":["BFC"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %s, want 429", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != fmt.Sprint(RetryAfterSeconds) {
		t.Fatalf("Retry-After = %q, want %q", got, fmt.Sprint(RetryAfterSeconds))
	}

	// Drain and retry: the same submission is accepted once capacity frees.
	close(release)
	if done := waitState(t, svc, first.ID); done.State != StateDone {
		t.Fatalf("blocking suite ended %s: %s", done.State, done.Error)
	}
	status, resp := postSuite(t, ts, `{"figure":"fig05a","scale":"tiny","schemes":["BFC"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit: %s, want 202", resp.Status)
	}
	waitHTTPDone(t, ts, status.ID)
}
