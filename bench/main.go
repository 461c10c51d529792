// Command bench is the repository's benchmark: four workloads that each
// stress a different part of the stack, measured end to end with tracing off
// and layer by layer with tracing on. BENCHMARK.json at the repository root
// declares the workloads, the metrics and their regression bounds; README.md
// in this directory explains what each number means and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"bfc/internal/sim"
)

// heldOutSeed is never used while a change is being written, so that a claim
// can be checked on inputs the change has not seen.
const heldOutSeed = 11

// scratchDir, in the checkout the benchmark runs from, takes everything the
// benchmark writes: the fleet's stores (removed after each repetition) and
// the span files. run.sh builds into it too.
const scratchDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	aa       bool
}

func main() {
	// Both sides of any comparison run with the same scheduler and collector
	// settings, whatever the environment says.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	// The sharded engine warns once per run when a boundary ring spills;
	// writing that is not part of the work measured.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run (a name from BENCHMARK.json), or all: each in a process of its own")
	flag.Int64Var(&cfg.seed, "seed", 7, fmt.Sprintf("input seed (%d is held out: use it only to check a finished claim)", heldOutSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed window on the reference box, which fixes the repetition count (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced run printing the per-layer metrics, the ladder and a span file; 0: end-to-end run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/spans-<workload>.json)")
	flag.BoolVar(&cfg.aa, "aa", false, "run every workload twice over seeds 1..10 and compare the two sets against the bounds")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	cat, err := loadCatalog(catalogFile)
	if err != nil {
		return err
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", cfg.trace)
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(cat.RunSeconds)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	switch {
	case cfg.aa:
		return runAA(cat, cfg)
	case cfg.workload == "all":
		for _, w := range cat.Workloads {
			res, err := runChild(w.Name, cfg.seed, cfg.seconds, cfg.trace, os.Stdout)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("workload %s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
			}
		}
		return nil
	case !cat.hasWorkload(cfg.workload):
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}

	w, enableTracing, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s, seed %d, tracing %s\n", cfg.workload, cfg.seed, map[int]string{0: "off", 1: "on"}[cfg.trace])
	fmt.Println("load: one closed-loop client in this process, GOMAXPROCS=2, GOGC=100; HTTP over the host's loopback interface;")
	fmt.Println("      link rates and wire latency are simulated, not measured. Model unvalidated; no error figure.")
	var res result
	if cfg.trace == 0 {
		res, err = reportUntraced(cat, w, cfg)
	} else {
		res, err = reportTraced(cat, w, enableTracing, cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// newWorkload builds the named workload; enableTracing switches on what the
// workload itself can add to a traced repetition.
func newWorkload(name string, seed int64) (w benchWorkload, enableTracing func(bool), err error) {
	profile := func(s *simWorkload) (benchWorkload, func(bool), error) {
		return s, func(on bool) { s.profiled = on }, nil
	}
	switch name {
	case "clos_incast_bfc":
		return profile(closIncast(sim.SchemeBFC, seed))
	case "clos_incast_dcqcn":
		return profile(closIncast(sim.SchemeDCQCN, seed))
	case "fattree1024_shards2":
		return profile(fatTree1024(seed))
	case "fleet_suite":
		f, err := newFleetWorkload(seed)
		return f, func(bool) {}, err
	}
	return nil, nil, fmt.Errorf("workload %q is declared in %s but not implemented", name, catalogFile)
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(rs runState, decls []metricDecl, values map[string]float64) result {
	res := result{Correct: rs.failed == 0, Attempted: rs.attempted, Failed: rs.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for _, f := range rs.failures {
		fmt.Println("FAILED", f)
	}
	fmt.Printf("ops_attempted %d, ops_failed %d\n", rs.attempted, rs.failed)
	return res
}

func reportUntraced(cat *catalog, w benchWorkload, cfg config) (result, error) {
	u, err := runUntraced(w, timedReps(cfg.workload, cfg.seconds))
	if err != nil {
		return result{}, err
	}
	values, sums := u.endToEnd()
	fmt.Printf("digest %s (every repetition reproduced it: %v)\n", u.digest, u.failed == 0)
	last := u.samples[len(u.samples)-1].result
	simulated := map[string]float64{}
	simLayerMetrics(last.res, simulated)
	fmt.Printf("simulated: p99 slowdown %.4f, p99 buffer %.4f MB, completed %.4f of flows, %d events per repetition\n",
		simulated["sim.p99_slowdown"], simulated["sim.p99_buffer_mb"], simulated["sim.completed_frac"], last.events)
	yard := summarize(u.yardstick)
	raw := summarize(column(u.samples, func(s sample) float64 { return s.wall }))
	fmt.Printf("yardstick %.4f s (median of %d readings; quartiles %.4f, %.4f) against %.3f s on the quiet reference box: the timings below are as measured x %.4f.\n",
		yard.Median, yard.N, yard.Q1, yard.Q3, yardstickRef, scale(u.yardstick))
	fmt.Printf("as measured, set-up took %.4f s and a repetition a median of %.4f s (quartiles %.4f, %.4f, minimum %.4f).\n",
		u.setup, raw.Median, raw.Q1, raw.Q3, raw.Min)
	fmt.Printf("%-18s %14s %-6s %-7s %14s %14s %14s %4s\n", "end-to-end metric", "value", "unit", "better", "q1", "q3", "min", "n")
	for _, d := range cat.EndToEnd {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s declares the end-to-end metric %q, which the program does not measure", catalogFile, d.Name)
		}
		if s, ok := sums[d.Name]; ok {
			fmt.Printf("%-18s %14.6g %-6s %-7s %14.6g %14.6g %14.6g %4d\n", d.Name, v, d.Unit, d.Better, s.Q1, s.Q3, s.Min, s.N)
		} else {
			fmt.Printf("%-18s %14.6g %-6s %-7s\n", d.Name, v, d.Unit, d.Better)
		}
	}
	return newResult(u.runState, cat.EndToEnd, values), nil
}

func reportTraced(cat *catalog, w benchWorkload, enableTracing func(bool), cfg config) (result, error) {
	t, err := runTraced(w, enableTracing)
	if err != nil {
		return result{}, err
	}
	med := t.medianRep()
	spans := t.tracer.spans
	rep := spans[med.rootSpanIndex].rep

	m := map[string]float64{"eventsim.events": float64(med.result.events)}
	simLayerMetrics(med.result.res, m)
	for k, v := range med.result.layer {
		m[k] = v
	}
	m["topology.build_s"], _ = sumSpans(spans, rep, "topology.build")
	m["workload.generate_s"], _ = sumSpans(spans, rep, "workload.generate")
	digest, _ := sumSpans(spans, rep, "stats.digest")
	m["stats.digest_ms"] = digest * 1e3
	if simRun, n := sumSpans(spans, rep, "sim.run"); n > 0 {
		m["sim.run_s"] = simRun
		m["sim.ns_per_event"] = simRun * 1e9 / float64(med.result.events)
	}
	wall := func(s sample) float64 { return s.wall }
	m["telemetry.trace_overhead_frac"] = summarize(column(t.spanned, wall)).Median/summarize(column(t.plain, wall)).Median - 1
	if err := microLayerMetrics(m); err != nil {
		return result{}, err
	}

	rows := ladder(spans, med.rootSpanIndex)
	m["ladder.unattributed_frac"] = rows[len(rows)-1].seconds / med.wall
	for name := range m {
		if _, ok := layerSources[name]; !ok {
			return result{}, fmt.Errorf("the program measured %q, which has no entry in layerSources", name)
		}
	}

	fmt.Printf("digest %s\n", t.digest)
	fmt.Printf("%-32s %14s %-6s %s\n", "per-layer metric", "value", "unit", "source")
	for _, d := range cat.PerLayer {
		src, ok := layerSources[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s declares the per-layer metric %q, which the program does not measure", catalogFile, d.Name)
		}
		fmt.Printf("%-32s %14.6g %-6s %s\n", d.Name, m[d.Name], d.Unit, src)
	}
	fmt.Printf("ladder: self time by layer in the median traced repetition (%.4f s)\n", med.wall)
	var sum float64
	for _, r := range rows {
		fmt.Printf("  %-14s %10.4f s %6.1f %%\n", r.layer, r.seconds, 100*r.seconds/med.wall)
		sum += r.seconds
	}
	fmt.Printf("  %-14s %10.4f s %6.1f %%\n", "sum", sum, 100*sum/med.wall)
	if m["sim.windows"] > 0 {
		fmt.Printf("  sim.run, from its execution profile: %.4f s outside the lookahead windows (device construction, merge), %.4f s inside;\n",
			m["sim.outside_windows_s"], m["sim.run_s"]-m["sim.outside_windows_s"])
		fmt.Printf("    over both shards %.4f s busy, %.4f s waiting at barriers, %.4f s draining boundary queues\n",
			m["sim.busy_s"], m["sim.barrier_wait_s"], m["sim.drain_s"])
	}

	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(scratchDir, "spans-"+cfg.workload+".json")
	}
	if err := writeChromeTrace(out, cfg.workload, spans); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s (open in ui.perfetto.dev)\n", len(spans), out)
	return newResult(t.runState, cat.PerLayer, m), nil
}

// layerSources says where each per-layer metric comes from. It is also the
// list of what the program measures: BENCHMARK.json must declare exactly
// these names.
var layerSources = map[string]string{
	"topology.build_s":              "span around NewClos / NewFatTree",
	"topology.build_allocs":         "heap objects allocated inside that span",
	"workload.generate_s":           "span around workload.Generate",
	"workload.flows":                "flows generated",
	"eventsim.events":               "Result.Events (fleet: sum over the cold phase's records); exact",
	"eventsim.heap_high_water":      "Exec.Shards[].HeapHighWater, largest shard; exact",
	"eventsim.schedule_fire_ns":     "microdriver: ScheduleCall + fire at heap depth 1024",
	"netsim.link_hop_ns":            "microdriver: one Link, send to deliver",
	"netsim.boundary_pushes":        "Exec.Shards[].Boundary.Pushes; 0 on serial runs",
	"netsim.boundary_spills":        "Exec.Shards[].Boundary.Spills",
	"netsim.boundary_spill_ratio":   "spills / pushes",
	"packet.pool_allocated":         "Exec.Shards[].PoolAllocated",
	"packet.pool_recycled":          "Exec.Shards[].PoolRecycled",
	"packet.pool_reuse_ratio":       "recycled / (allocated + recycled)",
	"switchsim.bfc_pkt_ns":          "microdriver: one BFC switch, ReceivePacket to delivery",
	"switchsim.fifo_pkt_ns":         "microdriver: one FIFO + ECN + PFC switch, ReceivePacket to delivery",
	"switchsim.data_packets":        "Result.DataPackets; exact",
	"switchsim.pauses":              "Result.Pauses; exact",
	"switchsim.resumes":             "Result.Resumes; exact",
	"switchsim.bfc_frames":          "Result.BFCFrames; exact",
	"switchsim.pfc_pauses":          "Result.PFCPauses; exact",
	"switchsim.ecn_marks":           "Result.ECNMarks; exact",
	"switchsim.drops":               "Result.Drops; exact",
	"core.collision_fraction":       "Result.CollisionFraction(); exact",
	"flowtable.overflow_fraction":   "Result.OverflowFraction(); exact",
	"nic.bfc_pkt_ns":                "microdriver: two BFC NICs back to back, per data packet with its ACK",
	"nic.dcqcn_pkt_ns":              "microdriver: two DCQCN NICs back to back, per data packet with its ACK",
	"stats.digest_ms":               "span around sim.ResultDigest",
	"stats.fct_samples":             "Result.FCT.Count(); exact",
	"sim.run_s":                     "span around sim.Run",
	"sim.ns_per_event":              "sim.run_s / eventsim.events",
	"sim.busy_s":                    "Exec: shard busy time, summed",
	"sim.barrier_wait_s":            "Exec: shard barrier wait, summed",
	"sim.drain_s":                   "Exec.DrainNS",
	"sim.windows":                   "Exec.Windows; exact",
	"sim.utilization":               "busy / (busy + barrier wait)",
	"sim.outside_windows_s":         "Exec.WallNS - sum of window wall: device construction and merge",
	"sim.shard_speedup":             "serial reference sim.Run wall / sharded sim.run_s",
	"sim.p99_slowdown":              "Result.FCT.OverallPercentile(99) (fleet: the fig05a BFC record); simulated, exact",
	"sim.p99_buffer_mb":             "Result.BufferOccupancy.Percentile(99); simulated, exact",
	"sim.completed_frac":            "FlowsCompleted / FlowsTotal; simulated, exact",
	"scenario.compile_ms":           "scenario.ParseSpec of the link-flap document",
	"scenario.reroutes":             "Result.Scenario.Reroutes, summed over the link-flap records; exact",
	"harness.job_execute_s":         "Runner Progress.Elapsed, summed over the serial reference run",
	"harness.store_put_ms":          "Store.Put per reference record",
	"harness.store_get_ms":          "Store.Get per reference record",
	"harness.manifest_list_ms":      "Store.List over the reference records",
	"service.compile_ms":            "ParseSuiteSpec + Compile, three suites",
	"service.cold_suite_s":          "client span: POST, follow to the end, GET results; mean of three suites",
	"service.warm_roundtrip_ms":     "client span: resubmit, status, fetch; median",
	"service.warm_roundtrip_p90_ms": "same, 90th percentile of the repetition's 201 round trips",
	"service.fetch_ms":              "client span: GET results; mean",
	"service.cached":                "SuiteStatus.Cached, summed over every submission",
	"service.executed":              "SuiteStatus.Executed, summed over every submission",
	"service.cache_hit_ratio":       "cached / (cached + executed)",
	"fleet.batches":                 "fleet status: batches_scattered",
	"fleet.batch_p50_s":             "fleet status: per-worker ledger batch p50, median of workers",
	"fleet.retries":                 "fleet status: batches_retried; must be 0",
	"fleet.local_fallbacks":         "fleet status: batches_local; must be 0",
	"fleet.worker_imbalance":        "fleet status: (largest worker's share of jobs - 1/n) / (1 - 1/n)",
	"fleet.manifest_ms":             "client span: GET /api/v1/fleet/manifest after the cold phase",
	"fleet.overhead_frac":           "1 - harness.job_execute_s / (cold wall x workers)",
	"telemetry.trace_overhead_frac": "traced run_wall_s / untraced run_wall_s - 1, same process",
	"ladder.unattributed_frac":      "repetition self time outside every layer span / repetition wall",
}
