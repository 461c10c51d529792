// Command bfcsim runs simulations locally: the paper's figures (-fig), or the
// one run its flags declare — a scheme list x a fabric x a workload,
// optionally under incast or a JSON scenario spec (see internal/scenario and
// the worked examples under examples/scenarios/). Either way the flags fill
// service.SuiteSpecs, the documents bfcd accepts — one per selected figure,
// or one "run" carrying an experiments.RunSpec — and SuiteSpec.Compile, the
// daemon's compiler, turns them into harness jobs named and hashed as the
// daemon would. bfcsim runs them on one harness.Runner and prints each
// figure's rows or, per scheme of the run, the flow-completion-time slowdown
// table, the aggregate statistics the paper reports and, under a scenario,
// the per-phase table and injection metrics.
//
// Every figure is one entry of the figure table in internal/experiments
// (-list prints it); Figs 1 and 4 are static data and run nothing. Two
// figures can share jobs (Fig 6 is a second rendering of Fig 5a's), and one
// invocation runs a job once. Each finished job prints one progress line on
// stderr, -out persists every record as a JSONL artifact, and -resume reruns
// only what is missing there. How jobs run and what is observed (-parallel,
// -shards, -exec-stats, -trace-dir, profiles, logging) is harness.RunFlags.
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
//	bfcsim -fig 5a                            # headline result at reduced scale
//	bfcsim -fig 5a -schemes BFC,DCQCN         # restrict the scheme axis
//	bfcsim -fig 8 -full -parallel 16          # paper-scale sweep on 16 workers
//	bfcsim -fig all -out results/ -resume     # rerun only what is missing
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
	"strings"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/service"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what the command's own flags declare, the run's mostly straight
// into a RunSpec; how the jobs execute and what is observed is
// harness.RunFlags.
type config struct {
	run                experiments.RunSpec
	schemes, scenario  string
	duration, drain    time.Duration
	digest             bool
	fig, out           string
	full, resume, list bool
}

// runOnlyFlags declare the run; -fig refuses them rather than ignore them.
var runOnlyFlags = []string{"topology", "workload", "load", "incast", "duration", "drain", "seed", "queues", "buffer-mb", "scenario", "digest"}

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
	if c.list {
		for _, f := range experiments.Figures() {
			fmt.Fprintf(stdout, "  %-4s %s\n", f.Token(), f.Desc)
		}
		return 0
	}
	if err := simulate(&c, fs, rf, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bfcsim: %v\n", err)
		return 1
	}
	return 0
}

// bind declares the command's own flags on fs.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.fig, "fig", "", `regenerate figures instead of a run, comma-separated: names as -list prints them ("5a"), registry keys ("fig05a"), or "all"`)
	fs.BoolVar(&c.full, "full", false, "with -fig: use paper-scale parameters (slow)")
	fs.StringVar(&c.out, "out", "", "results directory for per-job JSONL artifacts (empty = keep results in memory)")
	fs.BoolVar(&c.resume, "resume", false, "skip jobs whose artifact already exists under -out")
	fs.BoolVar(&c.list, "list", false, "list the figures -fig takes, with descriptions, and exit")
	fs.StringVar(&c.schemes, "schemes", "bfc", `comma-separated schemes (bfc, bfc-vfid, dcqcn, dcqcn+win, dcqcn+win+sfq, hpcc, ideal-fq) or "all"; with -fig, unset keeps each figure's own set, and figures with a paper-fixed set ignore it`)
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

// suite is one declaration bfcsim compiles, runs and prints: a figure of the
// table, or the run.
type suite struct {
	spec service.SuiteSpec
	fig  experiments.Figure // the zero Figure for the run
	jobs []harness.Job
}

// declare turns the parsed flags on fs into suite documents — one per -fig
// entry, or the run, its horizons in microseconds and its -scenario file as
// bytes — and compiles each with SuiteSpec.Compile. A figure takes -schemes
// only when it was given and the figure's scheme set is selectable.
func (c *config) declare(fs *flag.FlagSet) ([]suite, error) {
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	// Checked here too: a figure that ignores -schemes never compiles it.
	if _, err := sim.ParseSchemes(c.schemes); err != nil {
		return nil, err
	}
	schemes := strings.Split(c.schemes, ",")
	var suites []suite
	if c.fig == "" {
		if c.full {
			return nil, errors.New("-full applies only with -fig")
		}
		spec := c.run
		spec.DurationUS = float64(c.duration) / float64(time.Microsecond)
		spec.DrainUS = float64(c.drain) / float64(time.Microsecond)
		if c.scenario != "" {
			var err error
			if spec.Scenario, err = os.ReadFile(c.scenario); err != nil {
				return nil, err
			}
		}
		suites = []suite{{spec: service.SuiteSpec{Schemes: schemes, Run: &spec}}}
	} else {
		for _, name := range runOnlyFlags {
			if given[name] {
				return nil, fmt.Errorf("-%s declares a run and cannot be combined with -fig", name)
			}
		}
		figs, err := selectFigures(c.fig)
		if err != nil {
			return nil, err
		}
		for _, f := range figs {
			s := suite{spec: service.SuiteSpec{Figure: f.Key, Scale: c.scale().Name}, fig: f}
			if f.SchemesSelectable && given["schemes"] {
				s.spec.Schemes = schemes
			}
			suites = append(suites, s)
		}
	}
	for i := range suites {
		s := &suites[i]
		if s.spec.Run == nil && s.fig.Jobs == nil {
			continue // a static figure renders from no records
		}
		cs, err := s.spec.Compile()
		if err != nil {
			return nil, err
		}
		s.jobs = cs.Jobs
	}
	return suites, nil
}

// scale is the experiment scale of the figures.
func (c *config) scale() experiments.Scale {
	if c.full {
		return experiments.Full()
	}
	return experiments.Reduced()
}

// selectFigures resolves the -fig argument against the figure table.
func selectFigures(arg string) ([]experiments.Figure, error) {
	var figs []experiments.Figure
	for _, token := range strings.Split(arg, ",") {
		if strings.EqualFold(strings.TrimSpace(token), "all") {
			figs = append(figs, experiments.Figures()...)
			continue
		}
		f, ok := experiments.FigureByKey(token)
		if !ok {
			var valid []string
			for _, f := range experiments.Figures() {
				valid = append(valid, f.Key)
			}
			return nil, fmt.Errorf("unknown figure %q (want all, or any of %s; the fig and leading zero are optional)",
				strings.TrimSpace(token), strings.Join(valid, ", "))
		}
		figs = append(figs, f)
	}
	return figs, nil
}

func simulate(c *config, fs *flag.FlagSet, rf *harness.RunFlags, stdout, stderr io.Writer) (err error) {
	suites, err := c.declare(fs)
	if err != nil {
		return err
	}
	if c.resume && c.out == "" {
		return errors.New("-resume requires -out")
	}
	// Each finished job is reported on stderr, keeping stdout for the results.
	elapsed := map[string]time.Duration{}
	runner := &harness.Runner{Resume: c.resume, Progress: func(p harness.Progress) {
		elapsed[p.Job] = p.Elapsed
		status := "ran"
		if p.Cached {
			status = "cached"
		}
		fmt.Fprintf(stderr, "[%3d/%3d] %-56s %-6s %.2fs\n", p.Done, p.Total, p.Job, status, p.Elapsed.Seconds())
	}}
	if c.out != "" {
		if runner.Store, err = harness.NewStore(c.out); err != nil {
			return err
		}
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

	if c.fig != "" {
		scale := c.scale()
		fmt.Fprintf(stdout, "# scale: %s (%d ToR x %d hosts, %v horizon)\n\n",
			scale.Name, scale.NumToR, scale.HostsPerToR, scale.Duration)
	}
	// A job already run in this invocation is not run again: done holds every
	// record by job hash.
	done := map[string]*harness.Record{}
	for _, s := range suites {
		var todo []harness.Job
		for _, j := range s.jobs {
			if done[j.Hash()] == nil {
				todo = append(todo, j)
			}
		}
		ringCap := s.fig.TraceRing
		if s.spec.Run != nil {
			ringCap = telemetry.DefaultRingCapacity
		}
		ran, err := rf.Run(runner, todo, ringCap, stderr)
		if err != nil {
			return err
		}
		for _, rec := range ran {
			done[rec.Hash] = rec
		}
		recs := make([]*harness.Record, len(s.jobs))
		for i, j := range s.jobs {
			recs[i] = done[j.Hash()]
		}
		if s.spec.Run == nil {
			s.fig.Render(stdout, recs)
			fmt.Fprintln(stdout)
			continue
		}
		if err := c.printRun(stdout, stderr, recs, elapsed); err != nil {
			return err
		}
	}
	return nil
}

// printRun writes per scheme of the run its digest line or its block.
func (c *config) printRun(stdout, stderr io.Writer, recs []*harness.Record, elapsed map[string]time.Duration) error {
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
