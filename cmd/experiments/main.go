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
// prints, and -trace-dir swaps in rings the command reads back to export the
// raw events, which a resumed (not re-simulated) point does not have.
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
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	var (
		fig      = flag.String("fig", "all", `figures to regenerate, comma-separated: names as -list prints them ("5a"), registry keys ("fig05a"), or "all"`)
		full     = flag.Bool("full", false, "use paper-scale parameters (slow)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size")
		out      = flag.String("out", "", "results directory for per-job JSONL artifacts (empty = keep results in memory)")
		resume   = flag.Bool("resume", false, "skip jobs whose artifact already exists under -out")
		schemes  = flag.String("schemes", "all", `restrict the scheme axis ("BFC,DCQCN,..." or "all") of the figures that have one; figures with a paper-fixed scheme set ignore it`)
		shards   = flag.Int("shards", 0, "shards per run for the conservative-PDES engine (0/1 = serial, >=2 = explicit, -1 = auto: min(pods, GOMAXPROCS)); output is byte-identical across shard counts")
		list     = flag.Bool("list", false, "list the available figures/scenarios with descriptions and exit")
		traceDir = flag.String("trace-dir", "", "directory for the per-scheme flight-recorder exports of a figure that records one (fig 17): <scheme>.trace.json Chrome/Perfetto trace + <scheme>.events.jsonl")
	)
	flag.Parse()

	if *list {
		for _, f := range experiments.Figures() {
			fmt.Printf("  %-4s %s\n", f.Token(), f.Desc)
		}
		return
	}
	figs, err := selectFigures(*fig)
	if err != nil {
		log.Fatal(err)
	}

	scale := experiments.Reduced()
	if *full {
		scale = experiments.Full()
	}
	scale.Shards = *shards

	// nil keeps each figure's default scheme set.
	var schemeList []sim.Scheme
	if *schemes != "all" {
		schemeList, err = sim.ParseSchemes(*schemes)
		if err != nil {
			log.Fatal(err)
		}
	}

	runner := &harness.Runner{Parallel: *parallel, Progress: printProgress}
	if *resume && *out == "" {
		log.Fatal("experiments: -resume requires -out")
	}
	if *out != "" {
		store, err := harness.NewStore(*out)
		if err != nil {
			log.Fatal(err)
		}
		runner.Store = store
		runner.Resume = *resume
	}

	fmt.Printf("# scale: %s (%d ToR x %d hosts, %v horizon)\n\n",
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
		var rings []*telemetry.Ring
		if f.TraceRing > 0 && *traceDir != "" {
			rings = harness.AttachRings(todo, f.TraceRing)
		}
		ran, err := runner.Run(todo)
		if err != nil {
			log.Fatal(err)
		}
		for _, rec := range ran {
			done[rec.Hash] = rec
		}
		recs := make([]*harness.Record, len(jobs))
		for i, j := range jobs {
			recs[i] = done[j.Hash()]
		}
		f.Render(os.Stdout, recs)
		if rings != nil {
			// A point -resume loaded from -out was not simulated and left its
			// ring empty: it has no trace to export.
			written, err := harness.WriteTraces(*traceDir, todo, rings)
			if err != nil {
				log.Fatal(err)
			}
			if written < len(jobs) {
				fmt.Fprintf(os.Stderr, "experiments: %d of %d points were not re-simulated and have no trace\n", len(jobs)-written, len(jobs))
			}
			if written > 0 {
				fmt.Printf("  traces written to %s (load *.trace.json at https://ui.perfetto.dev)\n", *traceDir)
			}
		}
		fmt.Println()
	}
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

// printProgress reports each finished harness job on stderr, keeping stdout
// clean for the figure rows.
func printProgress(p harness.Progress) {
	status := "ran"
	if p.Cached {
		status = "cached"
	}
	fmt.Fprintf(os.Stderr, "[%3d/%3d] %-56s %-6s %.2fs\n",
		p.Done, p.Total, p.Job, status, p.Elapsed.Seconds())
}
