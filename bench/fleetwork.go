package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"bfc/internal/fleet"
	"bfc/internal/harness"
	"bfc/internal/scenario"
	"bfc/internal/service"
)

// linkFlapScenario is the scenario of examples/service/scenario-linkflap.json,
// copied so that an edit to the example cannot silently change the benchmark.
//
//go:embed scenario-linkflap.json
var linkFlapScenario []byte

// warmTrips is the number of resubmit -> status -> fetch round trips of one
// repetition's warm phase, fixed so the warm phase is about half of the
// repetition on the reference box. They cycle over the three suites, so every
// seed resubmits each suite equally often.
const warmTrips = 201

// fleetWorkload drives a coordinator and two workers over loopback HTTP as
// one closed-loop client: a cold phase that makes the fleet simulate three
// suites, then a warm phase served from the caches.
type fleetWorkload struct {
	suites   [][]byte // suite documents, in this seed's submission order
	bfcJob   string   // the record whose simulated statistics are reported
	client   *http.Client
	refBFC   *harness.Record
	events   uint64             // simulated events behind the cold phase
	refLayer map[string]float64 // per-layer figures taken on the reference run
}

func newFleetWorkload(seed int64) (*fleetWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	schemes := []string{"BFC", "Ideal-FQ", "DCQCN", "DCQCN+Win", "HPCC", "DCQCN+Win+SFQ"}
	shuffled := func() []string {
		out := append([]string(nil), schemes...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	specs := []service.SuiteSpec{
		{Name: "bench fig05a", Figure: "fig05a", Scale: "tiny", Schemes: shuffled()},
		{Name: "bench fig05c", Figure: "fig05c", Scale: "tiny", Schemes: shuffled()},
		{Name: "bench link flap", Scale: "tiny", Schemes: []string{"BFC", "DCQCN"}, Scenario: linkFlapScenario},
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	w := &fleetWorkload{
		bfcJob: "tiny/fig05a/scheme=BFC",
		// One client, one request at a time; the second connection carries
		// the event stream a submission is followed on.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	for i := range specs {
		doc, err := json.Marshal(&specs[i])
		if err != nil {
			return nil, err
		}
		w.suites = append(w.suites, doc)
	}
	return w, nil
}

// recordsDigest hashes record lines in sorted order, so that it does not
// depend on the order jobs were scattered or suites submitted in.
func recordsDigest(bodies ...[]byte) string {
	var lines [][]byte
	for _, b := range bodies {
		for _, line := range bytes.Split(b, []byte{'\n'}) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	h := sha256.New()
	for _, line := range lines {
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// reference runs every suite's jobs through a serial harness.Runner, the
// path cmd/experiments takes, and times the harness layers on its records.
func (w *fleetWorkload) reference() (string, error) {
	layer := map[string]float64{}
	t0 := time.Now()
	if _, err := scenario.ParseSpec(linkFlapScenario); err != nil {
		return "", err
	}
	layer["scenario.compile_ms"] = msSince(t0)

	var bodies [][]byte
	var records []*harness.Record
	w.events = 0
	for _, doc := range w.suites {
		t0 = time.Now()
		spec, err := service.ParseSuiteSpec(doc)
		if err != nil {
			return "", err
		}
		suite, err := spec.Compile()
		if err != nil {
			return "", err
		}
		layer["service.compile_ms"] += msSince(t0)

		runner := &harness.Runner{Parallel: 1, Progress: func(p harness.Progress) {
			layer["harness.job_execute_s"] += p.Elapsed.Seconds()
		}}
		recs, err := runner.Run(suite.Jobs)
		if err != nil {
			return "", err
		}
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return "", err
			}
			w.events += rec.Result.Events
			if rec.Name == w.bfcJob {
				w.refBFC = rec
			}
			if rec.Result.Scenario != nil {
				layer["scenario.reroutes"] += float64(rec.Result.Scenario.Reroutes)
			}
		}
		bodies = append(bodies, body.Bytes())
		records = append(records, recs...)
	}
	if w.refBFC == nil {
		return "", fmt.Errorf("no record named %q among the reference records", w.bfcJob)
	}
	if err := timeStore(records, layer); err != nil {
		return "", err
	}
	w.refLayer = layer
	return recordsDigest(bodies...), nil
}

// timeStore measures the result store on the reference records.
func timeStore(records []*harness.Record, layer map[string]float64) error {
	dir, err := os.MkdirTemp(scratchDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := harness.NewStore(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, rec := range records {
		if err := store.Put(rec); err != nil {
			return err
		}
	}
	layer["harness.store_put_ms"] = msSince(t0) / float64(len(records))
	t0 = time.Now()
	for _, rec := range records {
		if _, ok, err := store.Get(rec.Hash); err != nil || !ok {
			return fmt.Errorf("reading back record %s: ok=%v err=%v", rec.Hash, ok, err)
		}
	}
	layer["harness.store_get_ms"] = msSince(t0) / float64(len(records))
	t0 = time.Now()
	if _, err := store.List(); err != nil {
		return err
	}
	layer["harness.manifest_list_ms"] = msSince(t0)
	return nil
}

// daemons is a coordinator and its workers, each with a fresh store, serving
// on loopback listeners inside this process.
type daemons struct {
	dir      string
	servers  []*httptest.Server
	services []*service.Service
	coord    *fleet.Coordinator
	base     string // the coordinator's URL
}

func (d *daemons) serve(store *harness.Store, cfg service.Config, routes func(*http.ServeMux)) (string, error) {
	cfg.Store = store
	svc, err := service.New(cfg)
	if err != nil {
		return "", err
	}
	srv := httptest.NewServer(service.NewHandler(svc, routes))
	d.services = append(d.services, svc)
	d.servers = append(d.servers, srv)
	return srv.URL, nil
}

func startDaemons(workers int) (d *daemons, err error) {
	d = &daemons{}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	if d.dir, err = os.MkdirTemp(scratchDir, "fleet-"); err != nil {
		return d, err
	}
	newStore := func(name string) (*harness.Store, error) { return harness.NewStore(d.dir + "/" + name) }
	var urls []string
	for i := 0; i < workers; i++ {
		store, err := newStore(fmt.Sprintf("worker%d", i))
		if err != nil {
			return d, err
		}
		exec, err := fleet.NewExecutor(fleet.ExecutorConfig{Store: store, Parallel: 1})
		if err != nil {
			return d, err
		}
		u, err := d.serve(store, service.Config{Workers: 1}, exec.Routes())
		if err != nil {
			return d, err
		}
		urls = append(urls, u)
	}
	store, err := newStore("coordinator")
	if err != nil {
		return d, err
	}
	// Batch size, in-flight cap, retry budget and heartbeat stay at the
	// defaults a bfcd coordinator starts with.
	if d.coord, err = fleet.NewCoordinator(fleet.Config{Store: store, Workers: urls}); err != nil {
		return d, err
	}
	d.base, err = d.serve(store, service.Config{Fleet: d.coord}, d.coord.Routes())
	return d, err
}

// stop shuts the daemons down in the order cmd/bfcd drains them and removes
// their stores.
func (d *daemons) stop() {
	for _, srv := range d.servers {
		srv.Close()
	}
	for _, svc := range d.services {
		svc.Close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// call makes one request and returns the response body of a 2xx answer.
func (w *fleetWorkload) call(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(blob))
	}
	return blob, nil
}

func (w *fleetWorkload) status(method, url string, body []byte) (service.SuiteStatus, error) {
	var st service.SuiteStatus
	blob, err := w.call(method, url, body)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		return st, fmt.Errorf("%s %s: decoding status: %w", method, url, err)
	}
	return st, nil
}

// follow reads a suite's event stream to its end, as bfcctl watch does, and
// returns the terminal state.
func (w *fleetWorkload) follow(url string) (service.SuiteState, error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var last service.Event
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		data, ok := bytes.CutPrefix(lines.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		if err := json.Unmarshal(data, &last); err != nil {
			return "", fmt.Errorf("GET %s: decoding event: %w", url, err)
		}
	}
	if err := lines.Err(); err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if last.Type != "end" {
		return "", fmt.Errorf("GET %s: stream ended on a %q event", url, last.Type)
	}
	return last.State, nil
}

func (w *fleetWorkload) repetition(tr *tracer) (out *outcome, err error) {
	out = &outcome{events: w.events, res: w.refBFC.Result}
	var d *daemons
	tr.do("bench.daemons_start", func() { d, err = startDaemons(2) })
	if err != nil {
		return nil, err
	}
	defer tr.do("bench.daemons_stop", func() {
		w.client.CloseIdleConnections()
		d.stop()
	})
	suitesURL := d.base + "/api/v1/suites"

	// Cold phase: the fleet simulates every job.
	cold := make([][]byte, len(w.suites))
	var executed, cached int
	for i, doc := range w.suites {
		var st service.SuiteStatus
		var state service.SuiteState
		tr.do("service.cold_suite", func() {
			tr.do("service.submit", func() { st, err = w.status("POST", suitesURL, doc) })
			if err != nil {
				return
			}
			tr.do("fleet.execute_wait", func() { state, err = w.follow(suitesURL + "/" + st.ID + "/events") })
			if err != nil {
				return
			}
			tr.do("service.fetch", func() { cold[i], err = w.call("GET", suitesURL+"/"+st.ID+"/results", nil) })
		})
		if err != nil {
			return nil, err
		}
		if st, err = w.status("GET", suitesURL+"/"+st.ID, nil); err != nil {
			return nil, err
		}
		out.ops += st.Total
		if state != service.StateDone {
			out.failed += st.Total - st.Done
		}
		executed += st.Executed
		cached += st.Cached
	}
	out.digest = recordsDigest(cold...)

	// The ledger must show a scatter without retries or local fall-backs,
	// or the cold phase measured something else than the fleet.
	var ledger fleet.Status
	var blob []byte
	tr.do("fleet.status", func() { blob, err = w.call("GET", d.base+"/api/v1/fleet/status", nil) })
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(blob, &ledger); err != nil {
		return nil, fmt.Errorf("decoding fleet status: %w", err)
	}
	out.ops++
	if ledger.BatchesRetried != 0 || ledger.BatchesLocal != 0 {
		out.failed++
	}
	tr.do("fleet.manifest", func() { _, err = w.call("GET", d.base+"/api/v1/fleet/manifest", nil) })
	if err != nil {
		return nil, err
	}

	// Warm phase: every resubmission is answered from the caches, and what
	// it fetches is what the cold phase fetched.
	for trip := 0; trip < warmTrips; trip++ {
		i := trip % len(w.suites)
		var st service.SuiteStatus
		var body []byte
		tr.do("service.warm_roundtrip", func() {
			if st, err = w.status("POST", suitesURL, w.suites[i]); err != nil {
				return
			}
			if st, err = w.status("GET", suitesURL+"/"+st.ID, nil); err != nil {
				return
			}
			tr.do("service.fetch", func() { body, err = w.call("GET", suitesURL+"/"+st.ID+"/results", nil) })
		})
		if err != nil {
			return nil, err
		}
		out.ops++
		if st.State != service.StateDone || st.Executed != 0 || st.Cached != st.Total || !bytes.Equal(body, cold[i]) {
			out.failed++
		}
		cached += st.Cached
	}

	if tr != nil {
		out.layer = w.fleetLayerMetrics(tr, &ledger, executed, cached)
	}
	return out, nil
}

// fleetLayerMetrics turns the repetition's client-side spans and the
// coordinator's ledger into the service and fleet rows.
func (w *fleetWorkload) fleetLayerMetrics(tr *tracer, ledger *fleet.Status, executed, cached int) map[string]float64 {
	m := map[string]float64{}
	for k, v := range w.refLayer {
		m[k] = v
	}
	var trips []float64
	var coldWall, fetch float64
	var fetches int
	for _, s := range tr.spans {
		if s.rep != tr.rep {
			continue
		}
		d := (s.end - s.start).Seconds()
		switch s.name {
		case "service.cold_suite":
			coldWall += d
		case "service.warm_roundtrip":
			trips = append(trips, d*1e3)
		case "service.fetch":
			fetch += d * 1e3
			fetches++
		case "fleet.manifest":
			m["fleet.manifest_ms"] = d * 1e3
		}
	}
	m["service.cold_suite_s"] = coldWall / float64(len(w.suites))
	m["service.warm_roundtrip_ms"] = summarize(trips).Median
	// The highest percentile with ten samples beyond it, at warmTrips = 201.
	sort.Float64s(trips)
	m["service.warm_roundtrip_p90_ms"] = trips[len(trips)*90/100]
	m["service.fetch_ms"] = fetch / float64(fetches)
	m["service.executed"] = float64(executed)
	m["service.cached"] = float64(cached)
	m["service.cache_hit_ratio"] = float64(cached) / float64(cached+executed)

	m["fleet.batches"] = float64(ledger.BatchesScattered)
	m["fleet.retries"] = float64(ledger.BatchesRetried)
	m["fleet.local_fallbacks"] = float64(ledger.BatchesLocal)
	var p50s []float64
	var most, total float64
	for _, wk := range ledger.Workers {
		total += float64(wk.Jobs)
		if float64(wk.Jobs) > most {
			most = float64(wk.Jobs)
		}
		if wk.Throughput != nil {
			p50s = append(p50s, wk.Throughput.BatchP50MS/1e3)
		}
	}
	m["fleet.batch_p50_s"] = summarize(p50s).Median
	if total > 0 {
		// 0 when every worker ran the same number of jobs, 1 when one ran all.
		n := float64(len(ledger.Workers))
		m["fleet.worker_imbalance"] = (most/total - 1/n) / (1 - 1/n)
	}
	// The share of the two workers' time in the cold phase that was not spent
	// simulating, the simulation time being the serial reference's.
	if coldWall > 0 {
		m["fleet.overhead_frac"] = 1 - m["harness.job_execute_s"]/(coldWall*float64(len(ledger.Workers)))
	}
	return m
}
