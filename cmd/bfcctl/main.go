// Command bfcctl is the client for the bfcd simulation service.
//
//	bfcctl figures                         # what the server can compile
//	bfcctl submit suite.json               # submit, print the suite id
//	bfcctl submit -wait suite.json         # submit and stream progress
//	bfcctl watch s000001                   # follow a running suite (SSE)
//	bfcctl status                          # server version + service stats
//	bfcctl status s000001                  # one status snapshot
//	bfcctl trace s000001 'test/scheme=BFC' # flight-recorder trace of one job
//	bfcctl fetch s000001 > records.jsonl   # completed records, job order
//	bfcctl fetch -table s000001            # render the figure (or scenario) table
//	bfcctl cancel s000001
//	bfcctl store                           # completed artifacts on the server
//	bfcctl fleet                           # fleet status (coordinator or worker)
//	bfcctl top                             # live execution view (suites + fleet ledger)
//
// The server address comes from -addr or the BFCD_ADDR environment variable.
// Transient failures (connection errors, 429/502/503) are retried with capped
// exponential backoff; -retries bounds the attempts.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/fleet"
	"bfc/internal/harness"
	"bfc/internal/service"
	"bfc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", defaultAddr(), "bfcd base URL")
	retries := flag.Int("retries", 3, "retries per request on transient failures (connection errors, 429/502/503)")
	logOpts := telemetry.RegisterLogFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	telemetry.SetupLogging(logOpts)
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := &client{base: strings.TrimRight(*addr, "/"), retries: *retries}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "figures":
		err = c.figures()
	case "submit":
		err = c.submit(rest)
	case "status":
		err = c.status(rest)
	case "watch":
		err = c.watch(rest)
	case "fetch":
		err = c.fetch(rest, os.Stdout)
	case "trace":
		err = c.trace(rest)
	case "cancel":
		err = c.cancel(rest)
	case "store":
		err = c.store()
	case "fleet":
		err = c.fleet()
	case "top":
		err = c.top(rest)
	default:
		fmt.Fprintf(os.Stderr, "bfcctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		// Not through package log: SetupLogging reroutes it into slog at
		// INFO, where -log-level warn or error would swallow the message.
		fmt.Fprintf(os.Stderr, "bfcctl: %v\n", err)
		os.Exit(1)
	}
}

func defaultAddr() string {
	if addr := os.Getenv("BFCD_ADDR"); addr != "" {
		return addr
	}
	return "http://127.0.0.1:8377"
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: bfcctl [-addr URL] <command> [args]

commands:
  figures                     list compilable figures, scales and schemes
  submit [-wait] <suite.json> submit a suite spec
  status [id]                 print one suite status (no id: server version + stats)
  watch <id>                  stream progress until the suite ends
  fetch [-table] <id>         print completed records as JSONL (or a table)
  trace [-jsonl] <id> <job>   fetch one job's flight-recorder trace
                              (Chrome trace_event JSON; load in Perfetto)
  cancel <id>                 cancel a running suite
  store                       list the server's completed artifacts
  fleet                       print the server's fleet status (coordinator or worker)
  top [-interval d] [-n k]    live execution view: running suites with per-job
                              shard efficiency (SSE) and, on a coordinator,
                              the per-worker throughput ledger
`)
}

// Retry pacing: capped exponential backoff with jitter derived
// deterministically from the request ID, so a failing invocation's schedule
// is reproducible from its logs while concurrent bfcctl processes (distinct
// IDs) decorrelate.
const (
	retryBase = 200 * time.Millisecond
	retryMax  = 3 * time.Second
)

type client struct {
	base    string
	retries int
	seq     atomic.Uint64
}

func (c *client) url(path string) string { return c.base + path }

// retryable reports whether a response status is worth retrying: gateway
// hiccups and explicit server saturation. Everything else (including 4xx
// spec errors) is final.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// retryDelay picks the pause before retry attempt (0-based): the server's
// Retry-After wins when present (it knows when capacity frees), otherwise the
// deterministic backoff schedule for this request's seed.
func retryDelay(attempt int, seed uint64, resp *http.Response) time.Duration {
	if resp != nil {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fleet.Backoff(attempt, retryBase, retryMax, seed)
}

// do sends one request, retrying transient failures (transport errors,
// retryable statuses) up to c.retries times. A non-retryable response is
// returned as-is for the caller to interpret; exhausted retries surface the
// last failure.
func (c *client) do(method, path, contentType string, body []byte) (*http.Response, error) {
	id := fmt.Sprintf("bfcctl/%d/%s %s", c.seq.Add(1), method, path)
	seed := fleet.Seed(id)
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.url(path), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil && !retryable(resp.StatusCode) {
			return resp, nil
		}
		var delay time.Duration
		if err != nil {
			lastErr = err
			delay = retryDelay(attempt, seed, nil)
		} else {
			lastErr = apiError(resp)
			delay = retryDelay(attempt, seed, resp)
			resp.Body.Close()
		}
		if attempt >= c.retries {
			return nil, lastErr
		}
		fmt.Fprintf(os.Stderr, "bfcctl: %v; retrying in %v (%d/%d)\n",
			lastErr, delay.Round(time.Millisecond), attempt+1, c.retries)
		time.Sleep(delay)
	}
}

// getJSON decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(blob, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(blob)))
}

func (c *client) figures() error {
	var idx service.FigureIndex
	if err := c.getJSON("/api/v1/figures", &idx); err != nil {
		return err
	}
	fmt.Println("figures:")
	for _, f := range idx.Figures {
		sel := "fixed schemes"
		if f.SchemesSelectable {
			sel = "schemes selectable"
		}
		fmt.Printf("  %-8s %-18s %s\n", f.Key, "("+sel+")", f.Desc)
	}
	fmt.Printf("scales:  %s\n", strings.Join(idx.Scales, ", "))
	fmt.Printf("schemes: %s\n", strings.Join(idx.Schemes, ", "))
	return nil
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	wait := fs.Bool("wait", false, "stream progress and exit when the suite ends")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("submit needs exactly one suite file")
	}
	blob, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	resp, err := c.do(http.MethodPost, "/api/v1/suites", "application/json", blob)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return apiError(resp)
	}
	var status service.SuiteStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return err
	}
	printStatus(status)
	if !*wait || status.State != service.StateRunning {
		return nil
	}
	return c.follow(status.ID)
}

func (c *client) status(args []string) error {
	if len(args) == 0 {
		return c.serverStatus()
	}
	if len(args) != 1 {
		return fmt.Errorf("status takes at most one suite id")
	}
	var status service.SuiteStatus
	if err := c.getJSON("/api/v1/suites/"+args[0], &status); err != nil {
		return err
	}
	printStatus(status)
	return nil
}

// serverStatus prints the server's build information, model version and
// service counters — the no-argument form of "bfcctl status".
func (c *client) serverStatus() error {
	var info service.Version
	if err := c.getJSON("/api/v1/version", &info); err != nil {
		return err
	}
	fmt.Printf("server  %s %s (%s", info.Module, info.Version, info.GoVersion)
	if info.Revision != "" {
		rev := info.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Printf(", rev %s", rev)
		if info.Dirty {
			fmt.Print("+dirty")
		}
	}
	fmt.Printf(") model %d\n", info.ModelVersion)
	var stats service.Stats
	if err := c.getJSON("/api/v1/stats", &stats); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// trace fetches one job's flight-recorder trace to stdout: Chrome trace_event
// JSON by default (load it at https://ui.perfetto.dev), raw event JSONL with
// -jsonl.
func (c *client) trace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	jsonl := fs.Bool("jsonl", false, "raw event JSONL instead of Chrome trace JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("trace needs a suite id and a job name")
	}
	path := "/api/v1/suites/" + fs.Arg(0) + "/trace/" + fs.Arg(1)
	if *jsonl {
		path += "?format=jsonl"
	}
	resp, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func (c *client) watch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("watch needs a suite id")
	}
	return c.follow(args[0])
}

// events reads the suite's SSE stream, handing each event to fn until fn
// returns false or the stream ends.
func (c *client) events(id string, fn func(service.Event) bool) error {
	resp, err := c.do(http.MethodGet, "/api/v1/suites/"+id+"/events", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		var ev service.Event
		if !ok || json.Unmarshal([]byte(data), &ev) != nil {
			continue
		}
		if !fn(ev) {
			return nil
		}
	}
	return sc.Err()
}

// follow streams the suite's progress until the terminal event, then prints
// the final status line.
func (c *client) follow(id string) error {
	ended := false
	err := c.events(id, func(ev service.Event) bool {
		switch ev.Type {
		case "job":
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %s\n", ev.Done, ev.Total, ev.Job)
		case "end":
			ended = true
		}
		return !ended
	})
	if err != nil {
		return err
	}
	if !ended {
		return fmt.Errorf("event stream for %s ended without a terminal event", id)
	}
	var status service.SuiteStatus
	if err := c.getJSON("/api/v1/suites/"+id, &status); err != nil {
		return err
	}
	printStatus(status)
	if status.State != service.StateDone {
		return fmt.Errorf("suite %s ended %s: %s", id, status.State, status.Error)
	}
	return nil
}

func (c *client) fetch(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	table := fs.Bool("table", false, "render the suite's figure table (for a scenario, FCT slowdown by scheme) instead of raw JSONL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("fetch needs a suite id")
	}
	id := fs.Arg(0)
	resp, err := c.do(http.MethodGet, "/api/v1/suites/"+id+"/results", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if !*table {
		_, err := io.Copy(w, resp.Body)
		return err
	}
	var recs []*harness.Record
	dec := json.NewDecoder(resp.Body)
	for {
		rec := &harness.Record{}
		if err := dec.Decode(rec); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	// A figure suite prints as bfcsim -fig prints the figure: the suite's
	// resolved figure key picks the renderer — not the records' meta, which
	// for Fig 6 names the Fig 5a jobs it shares — and the figure renders
	// from records alone.
	var status service.SuiteStatus
	if err := c.getJSON("/api/v1/suites/"+id, &status); err != nil {
		return err
	}
	if fig, ok := experiments.FigureByKey(status.Figure); ok {
		fig.Render(w, recs)
		return nil
	}
	series := experiments.SeriesFromRecords(recs)
	fmt.Fprint(w, experiments.FormatSeries("suite "+id+": p99 FCT slowdown by flow size", series))
	return nil
}

func (c *client) cancel(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel needs a suite id")
	}
	resp, err := c.do(http.MethodDelete, "/api/v1/suites/"+args[0], "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var status service.SuiteStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return err
	}
	printStatus(status)
	return nil
}

func (c *client) store() error {
	var entries []harness.ManifestEntry
	if err := c.getJSON("/api/v1/store", &entries); err != nil {
		return err
	}
	for _, e := range entries {
		fmt.Printf("%s  %-14s model=%d  %s\n", e.Hash, e.Scheme, e.Model, e.Name)
	}
	fmt.Fprintf(os.Stderr, "%d completed artifacts\n", len(entries))
	return nil
}

// fleet prints the server's fleet status in a stable key=value form (the CI
// fleet smoke greps it).
func (c *client) fleet() error {
	var st fleet.Status
	if err := c.getJSON("/api/v1/fleet/status", &st); err != nil {
		return err
	}
	switch st.Mode {
	case "coordinator":
		fmt.Printf("fleet mode=coordinator workers=%d alive=%d scattered=%d retried=%d local=%d remote_jobs=%d deduped_jobs=%d\n",
			len(st.Workers), alive(st.Workers), st.BatchesScattered, st.BatchesRetried,
			st.BatchesLocal, st.JobsRemote, st.JobsDeduped)
		for _, w := range st.Workers {
			fmt.Printf("worker %s alive=%v last_seen_ms=%d batches=%d jobs=%d failures=%d%s\n",
				w.URL, w.Alive, w.LastSeenMS, w.Batches, w.Jobs, w.Failures, throughput(w.Throughput))
		}
	case "worker":
		w := st.Worker
		if w == nil {
			w = &fleet.ExecutorStatus{}
		}
		fmt.Printf("fleet mode=worker batches=%d executed=%d cached=%d busy=%d\n",
			w.Batches, w.JobsExecuted, w.JobsCached, w.Busy)
	default:
		return fmt.Errorf("server reports no fleet role (mode %q); is it running -mode standalone?", st.Mode)
	}
	return nil
}

// alive counts the live workers of a coordinator's status.
func alive(workers []fleet.WorkerStatus) int {
	n := 0
	for _, w := range workers {
		if w.Alive {
			n++
		}
	}
	return n
}

// throughput is a worker line's ledger suffix, empty before the worker's
// first batch.
func throughput(tp *fleet.WorkerThroughput) string {
	if tp == nil {
		return ""
	}
	return fmt.Sprintf(" jobs_per_sec=%.2f p50_ms=%.1f p90_ms=%.1f p99_ms=%.1f",
		tp.JobsPerSec, tp.BatchP50MS, tp.BatchP90MS, tp.BatchP99MS)
}

// runView is the per-suite state bfcctl top accumulates from each suite's SSE
// stream: the most recently finished job and its execution profile.
type runView struct {
	job  string
	exec *service.ExecEventStats
}

// top renders a periodically refreshed view of the server's in-flight work:
// every running suite with the shard efficiency of its latest executed job
// (streamed over the suite's SSE channel, so nothing is recomputed server
// side), and — when the server is a fleet coordinator — the per-worker
// throughput ledger. Output is plain appended lines per refresh, not a screen
// takeover, so it pipes and greps cleanly; -n bounds the refresh count for
// one-shot sampling in scripts and CI.
func (c *client) top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("n", 0, "refreshes before exiting (0 = run until interrupted)")
	fs.Parse(args)

	var (
		mu      sync.Mutex
		runs    = make(map[string]*runView)
		watched = make(map[string]bool)
	)
	for tick := 0; *count == 0 || tick < *count; tick++ {
		if tick > 0 {
			time.Sleep(*interval)
		}
		var suites []service.SuiteStatus
		if err := c.getJSON("/api/v1/suites", &suites); err != nil {
			return err
		}
		// One SSE follower per running suite; followers outlive the suites they
		// watch only until the terminal event closes the stream.
		for _, s := range suites {
			if s.State == service.StateRunning && !watched[s.ID] {
				watched[s.ID] = true
				go c.followExec(s.ID, &mu, runs)
			}
		}
		fmt.Printf("top %s refresh=%d\n", c.base, tick+1)
		running := 0
		for _, s := range suites {
			if s.State != service.StateRunning {
				continue
			}
			running++
			line := fmt.Sprintf("suite %s running done=%d/%d cached=%d executed=%d",
				s.ID, s.Done, s.Total, s.Cached, s.Executed)
			mu.Lock()
			if v := runs[s.ID]; v != nil && v.exec != nil {
				line += fmt.Sprintf(" last=%s shards=%d util=%.1f%% events=%d wall=%.1fms",
					v.job, v.exec.Shards, 100*v.exec.Utilization,
					v.exec.Events, v.exec.WallMS)
			}
			mu.Unlock()
			fmt.Println(line)
		}
		if running == 0 {
			fmt.Println("no running suites")
		}
		// The fleet section is best-effort: a standalone daemon has no
		// /api/v1/fleet/status and that is not an error for top.
		var st fleet.Status
		if err := c.getJSON("/api/v1/fleet/status", &st); err == nil && st.Mode == "coordinator" {
			fmt.Printf("fleet workers=%d alive=%d scattered=%d local=%d\n",
				len(st.Workers), alive(st.Workers), st.BatchesScattered, st.BatchesLocal)
			for _, w := range st.Workers {
				fmt.Printf("  worker %s alive=%v jobs=%d batches=%d%s\n",
					w.URL, w.Alive, w.Jobs, w.Batches, throughput(w.Throughput))
			}
		}
	}
	return nil
}

// followExec consumes one suite's SSE stream, keeping only the latest "job"
// event that carries an execution profile. Errors are silently dropped: top is
// an observer, and a suite whose stream fails simply shows no exec column.
func (c *client) followExec(id string, mu *sync.Mutex, runs map[string]*runView) {
	c.events(id, func(ev service.Event) bool {
		if ev.Type == "job" && ev.Exec != nil {
			mu.Lock()
			runs[id] = &runView{job: ev.Job, exec: ev.Exec}
			mu.Unlock()
		}
		return true
	})
}

// printStatus renders one status line; the stable key=value form is what the
// CI smoke test greps for its cache-hit assertions.
func printStatus(s service.SuiteStatus) {
	line := fmt.Sprintf("suite %s %s: figure=%s scale=%s jobs=%d done=%d cached=%d executed=%d digest=%s",
		s.ID, s.State, s.Figure, s.Scale, s.Total, s.Done, s.Cached, s.Executed, s.Digest)
	if s.Error != "" {
		line += " error=" + s.Error
	}
	fmt.Println(line)
}
