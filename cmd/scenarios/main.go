// Command scenarios runs a JSON scenario spec (see internal/scenario and the
// worked examples under examples/scenarios/) against a Clos fabric for one or
// more schemes and prints per-phase FCT tables, injection metrics, and a
// SHA-256 digest of each full result.
//
// The digest is the determinism contract made visible: the same spec and
// seed must print identical digests on every run, every -parallel value
// (worker-pool sharding across jobs), and every -shards value (the
// conservative-PDES engine within one run — scenario events apply at
// coordinator barriers, so fault storms parallelize too). The CI
// scenario-smoke job diffs two invocations with different -parallel values
// and the shard-smoke job diffs -shards 1/2/4. The digest excludes attached
// telemetry, so -trace-dir runs print the same digests as untraced ones (the
// CI telemetry-smoke job diffs exactly that).
//
// Examples:
//
//	scenarios -spec examples/scenarios/linkflap.json
//	scenarios -spec examples/scenarios/incast-storm.json -schemes BFC,DCQCN -digest
//	scenarios -spec my.json -tor 4 -spine 4 -hosts 16 -duration 1ms -load 0.7
//	scenarios -spec examples/scenarios/linkflap.json -trace-dir traces/
//	scenarios -spec examples/scenarios/linkflap.json -tor 8 -digest -shards 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		specPath = flag.String("spec", "", "path to the JSON scenario spec (required)")
		schemes  = flag.String("schemes", "all", `comma-separated schemes ("BFC,DCQCN,...") or "all"`)
		numToR   = flag.Int("tor", 2, "number of ToR switches")
		numSpine = flag.Int("spine", 2, "number of spine switches")
		hosts    = flag.Int("hosts", 8, "hosts per ToR")
		duration = flag.Duration("duration", 400*time.Microsecond, "workload horizon")
		drain    = flag.Duration("drain", 2*time.Millisecond, "extra time for in-flight flows to finish")
		load     = flag.Float64("load", 0.6, "background load fraction (0 disables background traffic)")
		cdfName  = flag.String("cdf", "google", "background flow-size distribution (google, fb_hadoop, websearch)")
		seed     = flag.Int64("seed", 1, "workload seed")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size")
		shards   = flag.Int("shards", 0, "shards per run for the conservative-PDES engine (0/1 = serial, >=2 = explicit, -1 = auto); scenario results are byte-identical across shard counts")
		digest   = flag.Bool("digest", false, "print only scheme digests (for determinism checks)")
		traceDir = flag.String("trace-dir", "", "write per-scheme flight-recorder traces (<scheme>.trace.json + <scheme>.events.jsonl) to this directory")
		execProf = flag.Bool("exec-stats", false, "collect wall-clock execution profiles and print the suite aggregate to stderr (observational; digests unchanged)")
	)
	logOpts := telemetry.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	telemetry.SetupLogging(logOpts)
	if *specPath == "" {
		log.Fatal("scenarios: -spec is required (see examples/scenarios/)")
	}
	blob, err := os.ReadFile(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := scenario.ParseSpec(blob)
	if err != nil {
		log.Fatal(err)
	}
	schemeList, err := sim.ParseSchemes(*schemes)
	if err != nil {
		log.Fatal(err)
	}

	dur := units.Time(duration.Nanoseconds()) * units.Nanosecond
	drainT := units.Time(drain.Nanoseconds()) * units.Nanosecond
	cdf, err := workload.ByName(*cdfName)
	if err != nil {
		log.Fatal(err)
	}

	topoFn := func() *topology.Topology {
		return topology.NewClos(topology.ClosConfig{
			Name:        "scenario-clos",
			NumToR:      *numToR,
			NumSpine:    *numSpine,
			HostsPerToR: *hosts,
			LinkRate:    100 * units.Gbps,
			LinkDelay:   1 * units.Microsecond,
		})
	}

	grid := harness.Grid{
		Base: harness.Job{
			Name:     fmt.Sprintf("scenario/%s/seed=%d", spec.Name, *seed),
			Meta:     map[string]string{"scenario": spec.Name, "seed": fmt.Sprint(*seed)},
			Topology: topoFn,
			Flows: func(topo *topology.Topology) []*packet.Flow {
				if *load <= 0 {
					return nil
				}
				tr, err := workload.Generate(workload.Config{
					Hosts:    topo.Hosts(),
					CDF:      cdf,
					Load:     *load,
					HostRate: topo.HostRate(topo.Hosts()[0]),
					Duration: dur,
					Seed:     *seed,
				})
				if err != nil {
					panic(err)
				}
				return tr.Flows
			},
			Options: []func(*sim.Options){func(o *sim.Options) {
				o.Duration = dur
				o.Drain = drainT
				o.Scenario = spec
				o.Shards = *shards
				o.ExecStats = *execProf
			}},
		},
		Axes: []harness.Axis{harness.SchemeAxis(schemeList)},
	}

	jobs := grid.Jobs()
	// Flight recorders are observational: attaching one leaves the job hash,
	// the result, and therefore the printed digest unchanged.
	var rings []*telemetry.Ring
	if *traceDir != "" {
		rings = harness.AttachRings(jobs, telemetry.DefaultRingCapacity)
	}

	runner := &harness.Runner{Parallel: *parallel}
	recs, err := runner.Run(jobs)
	if err != nil {
		log.Fatal(err)
	}
	if *execProf && runner.Exec.Runs > 0 {
		// The harness-level aggregate: one line across every scheme's run.
		ex := runner.Exec
		fmt.Fprintf(os.Stderr, "# exec: runs=%d sharded=%d events=%d windows=%d barriers=%d utilization=%.1f%% (worst %.1f%%) busy=%v barrier-wait=%v\n",
			ex.Runs, ex.ShardedRuns, ex.Events, ex.Windows, ex.Barriers,
			100*ex.Utilization(), 100*ex.UtilizationMin,
			time.Duration(ex.BusyNS).Round(time.Microsecond),
			time.Duration(ex.BarrierWaitNS).Round(time.Microsecond))
	}

	if *traceDir != "" {
		if _, err := harness.WriteTraces(*traceDir, jobs, rings); err != nil {
			log.Fatal(err)
		}
		for i, ring := range rings {
			fmt.Fprintf(os.Stderr, "wrote %s traces: %d events (%d seen, %d overwritten)\n",
				recs[i].Scheme, ring.Len(), ring.Seen(), ring.Overwritten())
		}
	}

	if !*digest {
		fmt.Printf("# scenario %q: %d events on %dx%d Clos (%d hosts), %v horizon\n\n",
			spec.Name, len(spec.Events), *numToR, *numSpine, *numToR**hosts, dur)
	}
	for _, rec := range recs {
		sum := resultDigest(rec)
		if *digest {
			// Digest lines carry only digest + scheme so they diff cleanly
			// across -shards values; the execution mode (sharded, serial, or
			// a forced-serial fallback) goes to stderr instead of silence.
			fmt.Printf("%s %s\n", sum, rec.Scheme)
			fmt.Fprintf(os.Stderr, "# %s execution=%s\n", rec.Scheme, rec.Result.Sharding.Describe())
			continue
		}
		printResult(rec, sum)
	}
}

// resultDigest hashes the full marshalled result (minus attached telemetry,
// which is observational): any nondeterminism anywhere in the run shows up as
// a digest change.
func resultDigest(rec *harness.Record) string {
	sum, err := sim.ResultDigest(rec.Result)
	if err != nil {
		log.Fatal(err)
	}
	return sum
}

func printResult(rec *harness.Record, sum string) {
	res := rec.Result
	m := res.Scenario
	fmt.Printf("## %s\n", rec.Scheme)
	fmt.Printf("  %-28s %10s %10s %8s %8s\n", "phase", "start", "end", "flows", "p99slow")
	for _, ph := range m.Phases {
		fmt.Printf("  %-28s %9.1fus %9.1fus %8d %8.2f\n",
			ph.Name, ph.Start.Microseconds(), ph.End.Microseconds(),
			ph.Completed, ph.FCT.OverallPercentile(99))
	}
	fmt.Printf("  events=%d reroutes=%d injected=%d stranded=%d (%d bytes) noroute=%d drops=%d completed=%d/%d\n",
		m.EventsApplied, m.Reroutes, m.InjectedFlows, m.StrandedPackets,
		m.StrandedBytes, m.NoRouteDrops, res.Drops, res.FlowsCompleted, res.FlowsTotal)
	fmt.Printf("  digest=%s execution=%s\n\n", sum, res.Sharding.Describe())
}
