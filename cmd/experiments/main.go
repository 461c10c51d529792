// Command experiments regenerates the paper's tables and figures. Every
// figure is one entry of the figure table in internal/experiments (-list
// prints it); the command compiles the selected entries' harness jobs, runs
// them and prints the rows or series each figure plots.
//
// Every simulated figure runs on the experiment harness: its points are
// sharded across a worker pool (-parallel), each completed point can be
// persisted as a JSONL artifact (-out), and an interrupted run can be resumed
// without re-executing completed points (-resume). Figs 1 and 4 are static
// data and run nothing. Fig 17 is the one figure that also needs a flight
// recorder while it runs: its jobs record into a ring and keep the counts it
// prints, and -trace-dir swaps in rings whose raw events are exported, which a
// resumed (not re-simulated) point does not have. How jobs run and what is
// observed (-parallel, -shards, -exec-stats, -trace-dir, profiles, logging) is
// harness.RunFlags, shared with cmd/bfcsim.
//
// Examples:
//
//	experiments -fig 5a                       # headline result at reduced scale
//	experiments -fig 5a -schemes BFC,DCQCN    # restrict the scheme axis
//	experiments -fig 8  -full -parallel 16    # paper-scale sweep on 16 workers
//	experiments -fig all -out results/        # persist every point as JSONL
//	experiments -fig all -out results/ -resume  # rerun only what is missing
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is what the command's own flags declare; how the jobs run is
// harness.RunFlags.
type options struct {
	fig, schemes, out  string
	full, resume, list bool
}

// run is main with its process edges passed in. An error that ends the
// command is written to stderr as "experiments: <err>" whatever -log-level
// says, and the exit code is returned: 0 done, 1 failed, 2 bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.fig, "fig", "all", `figures to regenerate, comma-separated: names as -list prints them ("5a"), registry keys ("fig05a"), or "all"`)
	fs.BoolVar(&o.full, "full", false, "use paper-scale parameters (slow)")
	fs.StringVar(&o.out, "out", "", "results directory for per-job JSONL artifacts (empty = keep results in memory)")
	fs.BoolVar(&o.resume, "resume", false, "skip jobs whose artifact already exists under -out")
	fs.StringVar(&o.schemes, "schemes", "all", `restrict the scheme axis ("BFC,DCQCN,..." or "all") of the figures that have one; figures with a paper-fixed scheme set ignore it`)
	fs.BoolVar(&o.list, "list", false, "list the available figures with descriptions and exit")
	rf := harness.RegisterRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.list {
		for _, f := range experiments.Figures() {
			fmt.Fprintf(stdout, "  %-4s %s\n", f.Token(), f.Desc)
		}
		return 0
	}
	if err := o.regenerate(rf, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}

func (o *options) regenerate(rf *harness.RunFlags, stdout, stderr io.Writer) (err error) {
	figs, err := selectFigures(o.fig)
	if err != nil {
		return err
	}
	scale := experiments.Reduced()
	if o.full {
		scale = experiments.Full()
	}
	// nil keeps each figure's default scheme set.
	var schemeList []sim.Scheme
	if o.schemes != "all" {
		if schemeList, err = sim.ParseSchemes(o.schemes); err != nil {
			return err
		}
	}
	// Each finished job is reported on stderr, keeping stdout for the rows.
	runner := &harness.Runner{Progress: func(p harness.Progress) {
		status := "ran"
		if p.Cached {
			status = "cached"
		}
		fmt.Fprintf(stderr, "[%3d/%3d] %-56s %-6s %.2fs\n", p.Done, p.Total, p.Job, status, p.Elapsed.Seconds())
	}}
	if o.resume && o.out == "" {
		return errors.New("-resume requires -out")
	}
	if o.out != "" {
		if runner.Store, err = harness.NewStore(o.out); err != nil {
			return err
		}
		runner.Resume = o.resume
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

	fmt.Fprintf(stdout, "# scale: %s (%d ToR x %d hosts, %v horizon)\n\n",
		scale.Name, scale.NumToR, scale.HostsPerToR, scale.Duration)

	// Two entries can share jobs (Fig 6 is a second rendering of Fig 5a's), so
	// a job already run in this invocation is not run again: done holds every
	// record by job hash.
	done := map[string]*harness.Record{}
	for _, f := range figs {
		var jobs, todo []harness.Job
		if f.Jobs != nil {
			var s []sim.Scheme
			if f.SchemesSelectable {
				s = schemeList
			}
			jobs = f.Jobs(scale, s)
		}
		for _, j := range jobs {
			if done[j.Hash()] == nil {
				todo = append(todo, j)
			}
		}
		ran, err := rf.Run(runner, todo, f.TraceRing, stderr)
		if err != nil {
			return err
		}
		for _, rec := range ran {
			done[rec.Hash] = rec
		}
		recs := make([]*harness.Record, len(jobs))
		for i, j := range jobs {
			recs[i] = done[j.Hash()]
		}
		f.Render(stdout, recs)
		fmt.Fprintln(stdout)
	}
	return nil
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
