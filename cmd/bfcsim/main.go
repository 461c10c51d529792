// Command bfcsim runs what its flags declare: a scheme list x a fabric x a
// workload, optionally under incast or a JSON scenario spec (see
// internal/scenario and the worked examples under examples/scenarios/). The
// flags fill an experiments.RunSpec — the document a bfcd suite's "run" field
// carries — which compiles to one harness job per scheme, named and hashed as
// the daemon would; bfcsim runs them and prints per scheme the
// flow-completion-time slowdown table, the aggregate statistics the paper
// reports and, under a scenario, the per-phase table and injection metrics.
//
// -digest prints only "<sha256> <scheme>" lines. The digest is the
// determinism contract made visible: the same flags must print identical
// lines on every run, every -parallel value (jobs side by side), every
// -shards value (the conservative-PDES engine within one run; scenario
// events apply at coordinator barriers, so fault storms shard too), and with
// or without -trace-dir and -exec-stats, which only observe. CI diffs exactly
// those pairs.
//
// Examples:
//
//	bfcsim -schemes bfc -topology t2 -workload google -load 0.6 -incast -duration 2ms
//	bfcsim -schemes all -scenario examples/scenarios/linkflap.json -topology clos:2x2x8 -duration 400us
//	bfcsim -schemes BFC,DCQCN -scenario examples/scenarios/incast-storm.json -topology clos:8x2x32 -digest -shards 4
//	bfcsim -topology fattree:256 -shards 4 -exec-stats -trace-dir traces/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what the simulation flags declare, most of it straight into a
// RunSpec; the run flags (how the jobs execute and what is observed) are
// harness.RunFlags.
type config struct {
	run               experiments.RunSpec
	schemes, scenario string
	duration, drain   time.Duration
	digest            bool
}

// run is main with its process edges passed in. An error that ends the
// command is written to stderr as "bfcsim: <err>" whatever -log-level says,
// and the exit code is returned: 0 done, 1 failed, 2 bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	c.bind(fs)
	rf := harness.RegisterRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := simulate(&c, rf, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bfcsim: %v\n", err)
		return 1
	}
	return 0
}

// bind declares the simulation flags on fs.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.schemes, "schemes", "bfc", `comma-separated schemes (bfc, bfc-vfid, dcqcn, dcqcn+win, dcqcn+win+sfq, hpcc, ideal-fq) or "all"`)
	fs.StringVar(&c.run.Topology, "topology", "t2", "topology: t1, t2, star:<hosts>, fattree:<hosts>, clos:<tor>x<spine>x<hosts per tor>")
	fs.StringVar(&c.run.Workload, "workload", "google", "background flow-size distribution: google, fb_hadoop, websearch")
	fs.Float64Var(&c.run.Load, "load", 0.6, "average background load as a fraction of host capacity (0 = no background traffic)")
	fs.BoolVar(&c.run.Incast, "incast", false, "add 5% 100-to-1 incast traffic")
	fs.DurationVar(&c.duration, "duration", 2*time.Millisecond, "workload horizon")
	fs.DurationVar(&c.drain, "drain", 2*time.Millisecond, "extra time for in-flight flows to finish")
	fs.Int64Var(&c.run.Seed, "seed", 1, "simulation and workload seed of every scheme's run")
	fs.IntVar(&c.run.Queues, "queues", 32, "physical queues per egress port")
	fs.IntVar(&c.run.BufferMB, "buffer-mb", 12, "switch shared buffer (MB)")
	fs.StringVar(&c.scenario, "scenario", "", "JSON scenario spec to run the workload under (link faults, degradations, injected bursts; see examples/scenarios/)")
	fs.BoolVar(&c.digest, "digest", false, `print only "<sha256> <scheme>" per run (telemetry excluded); each run's execution mode goes to stderr`)
}

// declare completes the RunSpec from the flags that do not bind onto it as
// they are — the horizons become microseconds, the -scenario file its bytes —
// and compiles it for the -schemes list.
func (c *config) declare() ([]harness.Job, error) {
	schemes, err := sim.ParseSchemes(c.schemes)
	if err != nil {
		return nil, err
	}
	spec := c.run
	spec.DurationUS = float64(c.duration) / float64(time.Microsecond)
	spec.DrainUS = float64(c.drain) / float64(time.Microsecond)
	if c.scenario != "" {
		if spec.Scenario, err = os.ReadFile(c.scenario); err != nil {
			return nil, err
		}
	}
	return spec.Jobs(schemes)
}

func simulate(c *config, rf *harness.RunFlags, stdout, stderr io.Writer) (err error) {
	jobs, err := c.declare()
	if err != nil {
		return err
	}
	stop, err := rf.Start(stderr)
	if err != nil {
		return err
	}
	// A failed run still flushes its profiles; its error wins over the stop's.
	defer func() {
		if stopErr := stop(); err == nil {
			err = stopErr
		}
	}()
	elapsed := map[string]time.Duration{}
	runner := &harness.Runner{Progress: func(p harness.Progress) { elapsed[p.Job] = p.Elapsed }}
	recs, err := rf.Run(runner, jobs, telemetry.DefaultRingCapacity, stderr)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		// The digest hashes the full marshalled result minus attached
		// telemetry: nondeterminism anywhere in the run moves it.
		sum, err := sim.ResultDigest(rec.Result)
		if err != nil {
			return err
		}
		if c.digest {
			// Digest lines carry only digest + scheme so they diff cleanly
			// across -shards values; the execution mode (sharded, serial, or
			// a forced-serial fallback) goes to stderr instead of silence.
			fmt.Fprintf(stdout, "%s %s\n", sum, rec.Scheme)
			fmt.Fprintf(stderr, "# %s execution=%s\n", rec.Scheme, rec.Result.Sharding.Describe())
			continue
		}
		c.printResult(stdout, rec, sum, elapsed[rec.Name])
	}
	return nil
}

// printResult writes one scheme's block: the run line, the aggregate
// statistics, the FCT slowdown table and, under a scenario, its phases.
func (c *config) printResult(w io.Writer, rec *harness.Record, sum string, elapsed time.Duration) {
	res := rec.Result
	fmt.Fprintf(w, "scheme=%s topology=%s workload=%s load=%.0f%% incast=%v\n",
		rec.Scheme, c.run.Topology, c.run.Workload, c.run.Load*100, c.run.Incast)
	fmt.Fprintf(w, "flows: %d offered, %d completed; simulated %v in %v (%d events, %s)\n",
		res.FlowsTotal, res.FlowsCompleted, res.Elapsed, elapsed.Round(time.Millisecond), res.Events,
		res.Sharding.Describe())
	fmt.Fprintf(w, "utilization=%.2f drops=%d ecn-marks=%d pfc-pauses=%d bfc-frames=%d\n",
		res.Utilization, res.Drops, res.ECNMarks, res.PFCPauses, res.BFCFrames)
	fmt.Fprintf(w, "digest=%s\n", sum)
	fmt.Fprintf(w, "buffer occupancy: p50=%v p99=%v max=%v\n",
		units.Bytes(res.BufferOccupancy.Percentile(50)),
		units.Bytes(res.BufferOccupancy.Percentile(99)),
		res.MaxBufferOccupancy)
	if res.Assignments > 0 {
		fmt.Fprintf(w, "bfc: pauses=%d resumes=%d collisions=%.4f max-active-flows=%d\n",
			res.Pauses, res.Resumes, res.CollisionFraction(), res.MaxActiveFlows)
	}
	fmt.Fprintln(w, "\nFCT slowdown by flow size (non-incast traffic):")
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s\n", "bucket", "count", "mean", "p50", "p95", "p99")
	for _, row := range res.FCT.Rows() {
		fmt.Fprintf(w, "%-12s %8d %8.2f %8.2f %8.2f %8.2f\n",
			row.Bucket.Label, row.Count, row.Mean, row.P50, row.P95, row.P99)
	}
	if m := res.Scenario; m != nil {
		fmt.Fprintf(w, "\nscenario %q by phase:\n", c.scenario)
		fmt.Fprintf(w, "%-28s %10s %10s %8s %8s\n", "phase", "start", "end", "flows", "p99slow")
		for _, ph := range m.Phases {
			fmt.Fprintf(w, "%-28s %9.1fus %9.1fus %8d %8.2f\n",
				ph.Name, ph.Start.Microseconds(), ph.End.Microseconds(),
				ph.Completed, ph.FCT.OverallPercentile(99))
		}
		fmt.Fprintf(w, "events=%d reroutes=%d injected=%d stranded=%d (%d bytes) noroute=%d\n",
			m.EventsApplied, m.Reroutes, m.InjectedFlows, m.StrandedPackets, m.StrandedBytes, m.NoRouteDrops)
	}
	fmt.Fprintln(w)
}
