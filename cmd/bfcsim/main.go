// Command bfcsim runs what its flags declare: a scheme list x a fabric x a
// workload, optionally under incast or a JSON scenario spec (see
// internal/scenario and the worked examples under examples/scenarios/). It
// compiles the flags to one harness job per scheme — the way cmd/experiments
// compiles the figure table — runs them, and prints per scheme the
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
	"strconv"
	"strings"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what the simulation flags declare; the run flags (how the jobs
// execute and what is observed) are harness.RunFlags.
type config struct {
	schemes, topology, workload, scenario string
	load                                  float64
	incast, digest                        bool
	duration, drain                       time.Duration
	seed                                  int64
	queues, bufferMB                      int
}

// run is main with its process edges passed in. An error that ends the
// command is written to stderr as "bfcsim: <err>" whatever -log-level says,
// and the exit code is returned: 0 done, 1 failed, 2 bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bfcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.schemes, "schemes", "bfc", `comma-separated schemes (bfc, bfc-vfid, dcqcn, dcqcn+win, dcqcn+win+sfq, hpcc, ideal-fq) or "all"`)
	fs.StringVar(&c.topology, "topology", "t2", "topology: t1, t2, star:<hosts>, fattree:<hosts>, clos:<tor>x<spine>x<hosts per tor>")
	fs.StringVar(&c.workload, "workload", "google", "background flow-size distribution: google, fb_hadoop, websearch")
	fs.Float64Var(&c.load, "load", 0.6, "average background load as a fraction of host capacity (0 = no background traffic)")
	fs.BoolVar(&c.incast, "incast", false, "add 5% 100-to-1 incast traffic")
	fs.DurationVar(&c.duration, "duration", 2*time.Millisecond, "workload horizon")
	fs.DurationVar(&c.drain, "drain", 2*time.Millisecond, "extra time for in-flight flows to finish")
	fs.Int64Var(&c.seed, "seed", 1, "simulation and workload seed of every scheme's run")
	fs.IntVar(&c.queues, "queues", 32, "physical queues per egress port")
	fs.IntVar(&c.bufferMB, "buffer-mb", 12, "switch shared buffer (MB)")
	fs.StringVar(&c.scenario, "scenario", "", "JSON scenario spec to run the workload under (link faults, degradations, injected bursts; see examples/scenarios/)")
	fs.BoolVar(&c.digest, "digest", false, `print only "<sha256> <scheme>" per run (telemetry excluded); each run's execution mode goes to stderr`)
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

func simulate(c *config, rf *harness.RunFlags, stdout, stderr io.Writer) (err error) {
	jobs, err := c.jobs()
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

// jobs compiles the flags to one job per scheme. Every job builds its own
// topology and workload from the same seed, so the schemes see identical
// traffic; -seed is also each run's simulation seed.
func (c *config) jobs() ([]harness.Job, error) {
	schemes, err := sim.ParseSchemes(c.schemes)
	if err != nil {
		return nil, err
	}
	topo, err := parseTopology(c.topology)
	if err != nil {
		return nil, err
	}
	cdf, err := workload.ByName(c.workload)
	if err != nil {
		return nil, err
	}
	var spec *scenario.Spec
	if c.scenario != "" {
		blob, err := os.ReadFile(c.scenario)
		if err != nil {
			return nil, err
		}
		if spec, err = scenario.ParseSpec(blob); err != nil {
			return nil, err
		}
	}
	horizon := units.Time(c.duration.Nanoseconds()) * units.Nanosecond
	wl := workload.Config{CDF: cdf, Load: c.load, HostRate: linkRate, Duration: horizon, Seed: c.seed}
	if c.incast {
		wl.Incast = workload.IncastConfig{Enabled: true, FanIn: 100, AggregateSize: 20 * units.MB, LoadFraction: 0.05}
	}
	grid := harness.Grid{
		Base: harness.Job{
			Name:     fmt.Sprintf("bfcsim/%s/seed=%d", c.topology, c.seed),
			Topology: topo,
			Flows: func(t *topology.Topology) []*packet.Flow {
				if wl.Load <= 0 {
					return nil
				}
				cfg := wl
				cfg.Hosts = t.Hosts()
				trace, err := workload.Generate(cfg)
				if err != nil {
					panic(err)
				}
				return trace.Flows
			},
			Options: []func(*sim.Options){func(o *sim.Options) {
				o.Duration = horizon
				o.Drain = units.Time(c.drain.Nanoseconds()) * units.Nanosecond
				o.NumQueues = c.queues
				o.SwitchBuffer = units.Bytes(c.bufferMB) * units.MB
				o.Seed = c.seed
				o.Scenario = spec
			}},
		},
		Axes: []harness.Axis{harness.SchemeAxis(schemes)},
	}
	return grid.Jobs(), nil
}

// Every -topology fabric has 100 Gbps links with 1 us of propagation delay,
// as in the paper (§4.1).
const (
	linkRate  = 100 * units.Gbps
	linkDelay = units.Microsecond
)

// parseTopology resolves -topology to a builder of fresh topologies. Sizes
// are whole decimal tokens: "star:8junk" is an error, not star:8.
func parseTopology(name string) (func() *topology.Topology, error) {
	kind, size, sized := strings.Cut(strings.ToLower(name), ":")
	var dims []int
	if sized {
		for _, tok := range strings.Split(size, "x") {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("invalid topology %q: size %q is not a number", name, tok)
			}
			dims = append(dims, n)
		}
	}
	switch {
	case kind == "t1" && dims == nil:
		return topology.NewT1, nil
	case kind == "t2" && dims == nil:
		return topology.NewT2, nil
	case kind == "star" && len(dims) == 1 && dims[0] >= 2:
		cfg := topology.SingleSwitchConfig{NumHosts: dims[0], LinkRate: linkRate, LinkDelay: linkDelay}
		return func() *topology.Topology { return topology.NewSingleSwitch(cfg) }, nil
	case kind == "fattree" && len(dims) == 1 && dims[0] >= 8:
		cfg := topology.FatTreeForHosts(dims[0], linkRate, linkDelay)
		return func() *topology.Topology { return topology.NewFatTree(cfg) }, nil
	case kind == "clos" && len(dims) == 3:
		cfg := topology.ClosConfig{
			Name: name, NumToR: dims[0], NumSpine: dims[1], HostsPerToR: dims[2],
			LinkRate: linkRate, LinkDelay: linkDelay,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return func() *topology.Topology { return topology.NewClos(cfg) }, nil
	}
	return nil, fmt.Errorf("invalid topology %q (want t1, t2, star:<hosts >= 2>, fattree:<hosts >= 8> or clos:<tor>x<spine>x<hosts per tor>)", name)
}

// printResult writes one scheme's block: the run line, the aggregate
// statistics, the FCT slowdown table and, under a scenario, its phases.
func (c *config) printResult(w io.Writer, rec *harness.Record, sum string, elapsed time.Duration) {
	res := rec.Result
	fmt.Fprintf(w, "scheme=%s topology=%s workload=%s load=%.0f%% incast=%v\n",
		rec.Scheme, c.topology, c.workload, c.load*100, c.incast)
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
