package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bfc/internal/harness"
	"bfc/internal/scenario"
	"bfc/internal/sim"
	"bfc/internal/units"
)

// Figure is one entry of the figure table: the only place a figure's key,
// description, job grid and renderer are declared. cmd/bfcsim lists,
// runs and prints figures from it; the service tier's bfcd turns a wire-form
// request like "fig05a@reduced, schemes BFC,DCQCN" into harness jobs through
// it without importing any cmd package, so completed artifacts keep the same
// names and content hashes no matter which entry point produced them.
type Figure struct {
	// Key is the registry name ("fig01", "fig05a", ..., "fig17").
	Key string
	// Desc is a one-line human description.
	Desc string
	// SchemesSelectable reports whether the schemes argument applies; figures
	// with a paper-fixed scheme set (e.g. Fig 8's BFC vs DCQCN+Win duel)
	// reject an explicit scheme selection rather than silently ignoring it.
	SchemesSelectable bool
	// Jobs compiles the figure's grid. schemes is ignored (and must be nil)
	// unless SchemesSelectable; nil selects each figure's default set. Jobs
	// is nil for the figures that are static data (1 and 4).
	Jobs func(scale Scale, schemes []sim.Scheme) []harness.Job
	// Render prints the figure from the records of its jobs, in job order
	// (none for a figure without jobs), and from nothing else: a figure
	// prints the same from a fresh run, a resumed -out directory or a served
	// suite.
	Render func(w io.Writer, recs []*harness.Record)
	// TraceRing, when positive, sizes the flight-recorder ring bfcsim
	// -trace-dir attaches to each job it runs of this figure, to export the
	// run's raw events. It only sizes that export: Render reads no ring.
	TraceRing int
}

// Token is the figure's short name on the bfcsim -fig command line
// ("5a" for fig05a, "17" for fig17).
func (f Figure) Token() string { return figureToken(f.Key) }

func figureToken(key string) string {
	key = strings.ToLower(strings.TrimSpace(key))
	return strings.TrimLeft(strings.TrimPrefix(key, "fig"), "0")
}

// fixedSchemes adapts the Jobs function of a figure whose scheme set is the
// paper's to the table's signature.
func fixedSchemes(jobs func(Scale) []harness.Job) func(Scale, []sim.Scheme) []harness.Job {
	return func(scale Scale, _ []sim.Scheme) []harness.Job { return jobs(scale) }
}

// fig05Panel is the entry of one Fig 5 panel.
func fig05Panel(variant Fig05Variant, desc string) Figure {
	f := Figure{
		Key: fig05Panels[variant].key, Desc: desc, SchemesSelectable: true,
		Jobs: func(scale Scale, schemes []sim.Scheme) []harness.Job {
			return Fig05Jobs(scale, variant, schemes)
		},
	}
	title := "## Fig " + f.Token() + ": p99 FCT slowdown by flow size"
	f.Render = func(w io.Writer, recs []*harness.Record) {
		fmt.Fprint(w, FormatSeries(title, Fig05FromRecords(recs).Series))
	}
	return f
}

// sensitivityFigure is the entry of one BFC resource sweep (Figs 12-14): the
// same high-load Google workload at every value of one resource, which vary
// sets on the point, one job per value; row prints one sweep point.
func sensitivityFigure(key, desc, title string, values []int, vary func(*point, int), row func(io.Writer, SensitivityRow)) Figure {
	return Figure{
		Key: key, Desc: desc,
		Jobs: func(scale Scale, _ []sim.Scheme) []harness.Job {
			var jobs []harness.Job
			for _, v := range scale.sweep(values) {
				p := scale.traffic(scale.t1(), "google", 0.60, true, harness.DeriveSeed(key, scale.Name, "workload"))
				vary(&p, v)
				label := strconv.Itoa(v)
				jobs = append(jobs, p.job(scale.Name+"/"+key+"/param="+label, sim.SchemeBFC, scale.labels(key, "scheme", "BFC", "param", label)))
			}
			return jobs
		},
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, title)
			for _, r := range SensitivityFromRecords(recs) {
				row(w, r)
			}
		},
	}
}

// figures is ordered as the paper presents the figures.
var figures = []Figure{
	{
		Key: "fig01", Desc: "switch hardware trend table (static data)",
		Render: func(w io.Writer, _ []*harness.Record) {
			fmt.Fprintln(w, "## Fig 1: switch hardware trend")
			for _, r := range Fig01HardwareTrend() {
				fmt.Fprintf(w, "  %-10s %d  %5.2f Tbps  %5.1f MB  %6.1f us buffer/capacity\n",
					r.Chip, r.Year, r.CapacityTbps, r.BufferMB, r.BufferOverCapU)
			}
		},
	},
	{
		Key: "fig02", Desc: "DCQCN (no PFC) buffer occupancy vs link speed",
		Jobs: fixedSchemes(Fig02Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 2: DCQCN (no PFC) buffer occupancy vs link speed")
			for _, r := range Fig02FromRecords(recs) {
				fmt.Fprintf(w, "  %-8v p50=%-10v p90=%-10v p99=%-10v max=%v\n", r.LinkRate, r.P50, r.P90, r.P99, r.Max)
			}
		},
	},
	{
		Key: "fig03", Desc: "DCQCN p99 FCT slowdown vs buffer/capacity ratio",
		Jobs: fixedSchemes(Fig03Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 3: DCQCN p99 FCT slowdown vs buffer/capacity ratio")
			for _, r := range Fig03FromRecords(recs) {
				fmt.Fprintf(w, "  %5.0f us (%v): overall p99 slowdown %.2f\n", r.BufferPerCapacityUS, r.Buffer, r.Series.Overall)
			}
		},
	},
	{
		Key: "fig04", Desc: "byte-weighted flow-size CDFs of the three workloads",
		Render: func(w io.Writer, _ []*harness.Record) {
			fmt.Fprintln(w, "## Fig 4: byte-weighted flow size CDFs")
			for _, r := range Fig04WorkloadCDF() {
				fmt.Fprintf(w, "  %-10s bytes<=1BDP=%.2f flows<1KB=%.2f\n", r.Workload, r.BytesWithin1BDP, r.FlowsUnder1KB)
			}
		},
	},
	fig05Panel(Fig05aGoogleIncast, "headline p99 FCT slowdown, Google traffic at 60% + 5% incast"),
	fig05Panel(Fig05bFBHadoopIncast, "headline p99 FCT slowdown, FB_Hadoop traffic at 60% + 5% incast"),
	fig05Panel(Fig05cGoogleNoIncast, "headline p99 FCT slowdown, Google traffic at 65%, no incast"),
	{
		// Fig 6 is a second rendering of the Fig 5a runs: its jobs are
		// fig05a's, name for name and hash for hash, so the two share
		// artifacts and one invocation simulates them once.
		Key: "fig06", Desc: "buffer occupancy and PFC pause time on the Fig 5a runs",
		SchemesSelectable: true,
		Jobs: func(scale Scale, schemes []sim.Scheme) []harness.Job {
			return Fig05Jobs(scale, Fig05aGoogleIncast, schemes)
		},
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 6: buffer occupancy and PFC pause time (Fig 5a workload)")
			for _, rec := range recs {
				res := rec.Result
				fmt.Fprintf(w, "  %-14s p99 buffer=%-10v ToR->Spine paused=%.4f Spine->ToR paused=%.4f\n",
					rec.Scheme, units.Bytes(res.BufferOccupancy.Percentile(99)),
					res.PauseTimeFraction["ToR->Spine"], res.PauseTimeFraction["Spine->ToR"])
			}
		},
	},
	{
		Key: "fig07", Desc: "dynamic vs static queue assignment (BFC vs BFC-VFID vs SFQ)",
		Jobs: fixedSchemes(Fig07Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			res := Fig07FromRecords(recs)
			fmt.Fprint(w, FormatSeries("## Fig 7a: dynamic vs static queue assignment", res.Series))
			for _, label := range slices.Sorted(maps.Keys(res.CollisionFraction)) {
				fmt.Fprintf(w, "  Fig 7b %-10s collision fraction = %.4f\n", label, res.CollisionFraction[label])
			}
		},
	},
	{
		Key: "fig08", Desc: "incast fan-in sweep: utilization and buffer p99",
		Jobs: fixedSchemes(Fig08Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 8: incast fan-in sweep")
			for _, r := range Fig08FromRecords(recs) {
				fmt.Fprintf(w, "  %-10s fanin=%-4d utilization=%.2f p99buffer=%v\n", r.Scheme, r.FanIn, r.Utilization, r.BufferP99)
			}
		},
	},
	{
		Key: "fig09", Desc: "cross-data-center intra/inter tail latency",
		Jobs: fixedSchemes(Fig09Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 9: cross-data-center tail latency")
			for _, r := range Fig09FromRecords(recs) {
				fmt.Fprintf(w, "  %-10s intra-p99=%.2f inter-p99=%.2f\n", r.Scheme, r.IntraP99, r.InterP99)
			}
		},
	},
	{
		Key: "fig10", Desc: "physical queue buffering vs concurrent flows (resume throttling)",
		Jobs: fixedSchemes(Fig10Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 10: physical queue size vs concurrent flows")
			for _, r := range Fig10FromRecords(recs) {
				fmt.Fprintf(w, "  %-14s flows=%-4d queueMax=%-10v (2-hop BDP=%v)\n", r.Scheme, r.ConcurrentFlows, r.QueueMax, r.TwoHopBDP)
			}
		},
	},
	{
		Key: "fig11", Desc: "high-priority queue ablation",
		Jobs: fixedSchemes(Fig11Jobs),
		Render: func(w io.Writer, recs []*harness.Record) {
			res := Fig11FromRecords(recs)
			fmt.Fprint(w, FormatSeries("## Fig 11: high-priority queue ablation", res.Series))
			for _, label := range slices.Sorted(maps.Keys(res.OccupiedQueuesP99)) {
				fmt.Fprintf(w, "  %-18s p99 occupied queues = %.1f\n", label, res.OccupiedQueuesP99[label])
			}
		},
	},
	sensitivityFigure("fig12", "sensitivity to number of physical queues",
		"## Fig 12: sensitivity to number of physical queues",
		[]int{8, 16, 32, 64, 128}, func(p *point, v int) { p.Queues = v },
		func(w io.Writer, r SensitivityRow) {
			fmt.Fprintf(w, "  queues=%-4d collisions=%.4f p99slowdown=%.2f\n", r.Parameter, r.CollisionFraction, r.Series.Overall)
		}),
	sensitivityFigure("fig13", "sensitivity to VFID table size",
		"## Fig 13: sensitivity to VFID table size",
		[]int{1024, 4096, 16384, 65536}, func(p *point, v int) { p.VFIDs = v },
		func(w io.Writer, r SensitivityRow) {
			fmt.Fprintf(w, "  vfids=%-6d vfid-collisions=%.5f overflows=%.5f p99slowdown=%.2f\n",
				r.Parameter, r.VFIDCollisionFraction, r.OverflowFraction, r.Series.Overall)
		}),
	sensitivityFigure("fig14", "sensitivity to bloom filter size",
		"## Fig 14: sensitivity to bloom filter size",
		[]int{16, 32, 64, 128}, func(p *point, v int) { p.BloomBytes = v },
		func(w io.Writer, r SensitivityRow) {
			fmt.Fprintf(w, "  bloom=%-4dB p99slowdown=%.2f\n", r.Parameter, r.Series.Overall)
		}),
	{
		Key: "fig15", Desc: "scenario robustness: all schemes through a link fail/recover (see also bfcsim -scenario)",
		SchemesSelectable: true,
		Jobs:              Fig15Jobs,
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 15: scheme robustness under link fail/recover (p99 slowdown by phase)")
			for _, r := range Fig15FromRecords(recs) {
				fmt.Fprintf(w, "  %-14s pre=%-8.2f fail=%-8.2f recovered=%-8.2f reroutes=%-4d stranded=%-5d noroute=%-5d completed=%d/%d\n",
					r.Scheme, r.PreP99, r.FailP99, r.RecoverP99, r.Reroutes, r.Stranded, r.NoRoute, r.Completed, r.Offered)
			}
		},
	},
	{
		Key: "fig16", Desc: "scale tier: three-tier fat-tree host-count sweep with streaming stats (128-1024 hosts at -full)",
		SchemesSelectable: true,
		Jobs: func(scale Scale, schemes []sim.Scheme) []harness.Job {
			return Fig16Jobs(scale, nil, schemes)
		},
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 16: scale tier — fat-tree host-count sweep (streaming stats)")
			for _, r := range Fig16FromRecords(recs) {
				fmt.Fprintf(w, "  %-14s hosts=%-5d switches=%-4d p99slowdown=%-8.2f util=%-6.2f p99buffer=%-10v statsSamples=%-6d completed=%d/%d digest=%s\n",
					r.Scheme, r.Hosts, r.Switches, r.P99, r.Utilization, r.BufferP99, r.StatsSamples, r.Completed, r.Offered, r.Digest)
			}
		},
	},
	{
		Key: "fig17", Desc: "congestion dynamics through an incast: queue occupancy + pause activity time-series, exportable as Perfetto traces (-trace-dir)",
		SchemesSelectable: true,
		Jobs:              Fig17Jobs,
		TraceRing:         fig17RingCapacity,
		Render: func(w io.Writer, recs []*harness.Record) {
			fmt.Fprintln(w, "## Fig 17: congestion dynamics through an incast (series sampler + run counters)")
			for _, r := range Fig17FromRecords(recs) {
				fmt.Fprintf(w, "  %-14s p99slowdown=%-8.2f peakBuffer=%-10v peakPauseFrac=%-7.4f pfcPauses=%-6d bfcPauses=%-6d assigns=%-6d drops=%d\n",
					r.Scheme, r.P99, r.PeakBuffer, r.PeakPauseFraction, r.PFCPauses, r.BFCPauses, r.QueueAssignments, r.Drops)
				for _, p := range Fig17Timeline(r, 8) {
					fmt.Fprintf(w, "      t=%-12v buffer=%-10v pauseFrac=%.4f\n", p.At, p.Buffer, p.PauseFraction)
				}
			}
		},
	},
}

// Figures returns the table's entries in presentation order.
func Figures() []Figure {
	return append([]Figure{}, figures...)
}

// FigureByKey resolves a registry key ("fig05a") or its command-line token
// ("5a"), case-insensitively.
func FigureByKey(key string) (Figure, bool) {
	token := figureToken(key)
	for _, f := range figures {
		if f.Token() == token {
			return f, true
		}
	}
	return Figure{}, false
}

// ScaleByName resolves the named experiment scale: "tiny", "reduced" or
// "full".
func ScaleByName(name string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "reduced":
		return Reduced(), nil
	case "tiny":
		return Tiny(), nil
	case "full":
		return Full(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (want tiny, reduced or full)", name)
	}
}

// ScenarioJobs declares one job per scheme running the given scenario spec on
// the scale's Clos fabric under the standard Fig 5a background workload
// (Google at 60% + 5% incast) — the service tier's path for ad-hoc
// fault-injection suites. Every scheme sees identical traffic and identical
// injected events. The spec's wire form is part of the point, so two
// scenarios that share a name but differ in content never alias one cached
// artifact.
func ScenarioJobs(scale Scale, spec *scenario.Spec, schemes []sim.Scheme) ([]harness.Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("experiments: nil scenario spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p, err := scale.traffic(scale.t1(), "google", 0.60, true,
		harness.DeriveSeed("scenario", spec.Name, scale.Name, "workload")).withScenario(spec)
	if err != nil {
		return nil, err
	}
	return p.grid(scale.Name+"/scenario/"+spec.Name, scale.labels("scenario", "scenario", spec.Name), schemes), nil
}

// SeriesFromRecords assembles one slowdown series per record of a pure
// scheme grid (a scenario suite), labelled and ordered by scheme, for
// rendering through FormatSeries. Figure suites render through their table
// entry instead.
func SeriesFromRecords(recs []*harness.Record) []SlowdownSeries {
	out := make([]SlowdownSeries, 0, len(recs))
	for _, rec := range recs {
		out = append(out, seriesFromResult(rec.Scheme, rec.Result))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}
