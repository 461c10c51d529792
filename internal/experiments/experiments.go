// Package experiments defines one named, parameterized experiment per table
// and figure in the paper's evaluation (§4). Every figure is one entry of the
// Figures table (registry.go): a key, a description, a FigNNJobs function
// that compiles the topology, workload and schemes the paper describes into
// harness jobs, and a renderer that prints the figure's rows from the
// completed records (through the matching FigNNFromRecords). Listing, running,
// persisting and serving a figure all go through that one entry. A single run
// outside the table — what cmd/bfcsim's flags declare — is a RunSpec (run.go).
//
// Every experiment takes a Scale. Reduced() keeps the topology shape, load
// level and flow-size distribution of the paper but shrinks host counts and
// durations so the whole suite runs in minutes on a laptop; Full() uses the
// paper's parameters.
package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/sim"
	"bfc/internal/stats"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// Scale controls experiment size.
type Scale struct {
	// Name labels result output ("reduced", "full").
	Name string
	// NumToR, NumSpine and HostsPerToR shape the Clos fabrics.
	NumToR, NumSpine, HostsPerToR int
	// Duration is the workload horizon per run.
	Duration units.Time
	// Drain is the extra time allowed for in-flight flows to finish.
	Drain units.Time
	// IncastFanIn is the fan-in used for the 5% incast traffic (100 in the
	// paper).
	IncastFanIn int
	// IncastAggregate is the per-event incast volume (20 MB in the paper).
	IncastAggregate units.Bytes
	// SweepPoints trims parameter sweeps (fan-in, queue counts, ...) to at
	// most this many points (0 = all).
	SweepPoints int
}

// Reduced returns the default benchmark-friendly scale.
func Reduced() Scale {
	return Scale{
		Name:            "reduced",
		NumToR:          2,
		NumSpine:        2,
		HostsPerToR:     8,
		Duration:        400 * units.Microsecond,
		Drain:           2 * units.Millisecond,
		IncastFanIn:     15,
		IncastAggregate: 2 * units.MB,
		SweepPoints:     3,
	}
}

// Tiny returns the smallest useful scale; used by the test suite so that
// every experiment's plumbing is exercised in seconds.
func Tiny() Scale {
	return Scale{
		Name:            "tiny",
		NumToR:          2,
		NumSpine:        2,
		HostsPerToR:     4,
		Duration:        150 * units.Microsecond,
		Drain:           800 * units.Microsecond,
		IncastFanIn:     6,
		IncastAggregate: 512 * units.KB,
		SweepPoints:     2,
	}
}

// Full returns the paper-scale parameters (§4.1). Running every figure at
// this scale takes hours of CPU time.
func Full() Scale {
	return Scale{
		Name:            "full",
		NumToR:          8,
		NumSpine:        8,
		HostsPerToR:     16,
		Duration:        10 * units.Millisecond,
		Drain:           10 * units.Millisecond,
		IncastFanIn:     100,
		IncastAggregate: 20 * units.MB,
	}
}

// clos builds the scaled T1-shaped fabric.
func (s Scale) clos() *topology.Topology { return s.closOf("T1", s.NumToR, 100*units.Gbps) }

// closT2 builds the scaled T2-shaped fabric (half the racks of T1).
func (s Scale) closT2() *topology.Topology { return s.closT2At(100 * units.Gbps) }

// closT2At builds the T2-shaped fabric with every link at the given rate.
func (s Scale) closT2At(rate units.Rate) *topology.Topology {
	return s.closOf("T2", max(s.NumToR/2, 1), rate)
}

func (s Scale) closOf(name string, numToR int, rate units.Rate) *topology.Topology {
	return topology.NewClos(topology.ClosConfig{
		Name:        name,
		NumToR:      numToR,
		NumSpine:    s.NumSpine,
		HostsPerToR: s.HostsPerToR,
		LinkRate:    rate,
		LinkDelay:   1 * units.Microsecond,
	})
}

// sweep trims a sweep to SweepPoints entries, keeping the extremes.
func (s Scale) sweep(points []int) []int {
	if s.SweepPoints <= 0 || len(points) <= s.SweepPoints {
		return points
	}
	out := []int{points[0]}
	step := float64(len(points)-1) / float64(s.SweepPoints-1)
	for i := 1; i < s.SweepPoints-1; i++ {
		out = append(out, points[int(float64(i)*step+0.5)])
	}
	return append(out, points[len(points)-1])
}

// background returns the Flows builder for the standard background (+ 5%
// incast) workload on whatever topology the job builds.
func (s Scale) background(cdf *workload.CDF, load float64, incast bool, seed int64) func(*topology.Topology) []*packet.Flow {
	return func(topo *topology.Topology) []*packet.Flow {
		cfg := workload.Config{
			Hosts:    topo.Hosts(),
			CDF:      cdf,
			Load:     load,
			HostRate: topo.HostRate(topo.Hosts()[0]),
			Duration: s.Duration,
			Seed:     seed,
		}
		if incast {
			cfg.Incast = workload.IncastConfig{
				Enabled:       true,
				FanIn:         s.IncastFanIn,
				AggregateSize: s.IncastAggregate,
				LoadFraction:  0.05,
			}
		}
		tr, err := workload.Generate(cfg)
		if err != nil {
			panic(err)
		}
		return tr.Flows
	}
}

// SlowdownSeries is one labelled FCT-slowdown-vs-flow-size curve.
type SlowdownSeries struct {
	Label string
	// P99BySize maps flow-size bucket labels to p99 slowdowns.
	P99BySize map[string]float64
	// Overall is the p99 slowdown over all flows.
	Overall float64
	// Completed and Offered count flows.
	Completed, Offered int
}

// FormatSeries renders a set of slowdown curves as an aligned text table.
func FormatSeries(title string, series []SlowdownSeries) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	buckets := []string{"<1KB", "1-3KB", "3-10KB", "10-30KB", "30-100KB", "100-300KB", "300KB-1MB", ">1MB"}
	fmt.Fprintf(&sb, "%-16s", "scheme")
	for _, b := range buckets {
		fmt.Fprintf(&sb, "%12s", b)
	}
	fmt.Fprintf(&sb, "%12s\n", "overall")
	for _, s := range series {
		fmt.Fprintf(&sb, "%-16s", s.Label)
		for _, b := range buckets {
			if v, ok := s.P99BySize[b]; ok {
				fmt.Fprintf(&sb, "%12.2f", v)
			} else {
				fmt.Fprintf(&sb, "%12s", "-")
			}
		}
		fmt.Fprintf(&sb, "%12.2f\n", s.Overall)
	}
	return sb.String()
}

func seriesFromResult(label string, res *sim.Result) SlowdownSeries {
	return SlowdownSeries{
		Label:     label,
		P99BySize: res.FCT.TailSlowdownBySize(),
		Overall:   res.FCT.OverallPercentile(99),
		Completed: res.FlowsCompleted,
		Offered:   res.FlowsTotal,
	}
}

// applyOptions is the option mutator harness jobs use to adopt the scale's
// horizon.
func (s Scale) applyOptions(o *sim.Options) {
	o.Duration = s.Duration
	o.Drain = s.Drain
}

// pinDefaultSeed keeps Figs 2, 3, 7, 10, 11 and 17 on sim's default
// simulation seed. They predate the harness, which derives each job's seed
// from its name; a mutator has the final say over the derived seed (see
// harness.Job.Options), and pinning it keeps the rows these figures have
// always printed.
func pinDefaultSeed(o *sim.Options) { o.Seed = 1 }

// singleSchemeJob is the grid base of a figure that runs one scheme at every
// point: named and labelled for the figure, on the scale's horizon.
func (s Scale) singleSchemeJob(fig string, scheme sim.Scheme) harness.Job {
	return harness.Job{
		Name:    s.Name + "/" + fig,
		Scheme:  scheme,
		Meta:    map[string]string{"fig": fig, "scale": s.Name, "scheme": scheme.String()},
		Options: []func(*sim.Options){s.applyOptions},
	}
}

// variant is an axis value for ablation figures whose points are labelled
// design variants rather than numbers: it selects the scheme and appends the
// variant's option overrides.
func variant(label string, scheme sim.Scheme, opts ...func(*sim.Options)) harness.Value {
	return harness.Value{Label: label, Apply: func(j *harness.Job) {
		j.Scheme = scheme
		j.Options = append(j.Options, opts...)
	}}
}

// metaInt reads an integer axis label back from a record.
func metaInt(rec *harness.Record, key string) int {
	v, err := strconv.Atoi(rec.Meta[key])
	if err != nil {
		panic(fmt.Sprintf("experiments: record %q has no %s: %v", rec.Name, key, err))
	}
	return v
}

// ---------------------------------------------------------------------------
// Figure 1: hardware trend table (static data from the paper).

// HardwareTrendRow is one switch generation from Fig 1.
type HardwareTrendRow struct {
	Chip           string
	Year           int
	CapacityTbps   float64
	BufferMB       float64
	BufferOverCapU float64 // buffer size / capacity in microseconds
}

// Fig01HardwareTrend returns the Broadcom switch generations plotted in Fig 1.
func Fig01HardwareTrend() []HardwareTrendRow {
	rows := []HardwareTrendRow{
		{Chip: "Trident2", Year: 2012, CapacityTbps: 1.28, BufferMB: 12},
		{Chip: "Tomahawk", Year: 2014, CapacityTbps: 3.2, BufferMB: 16},
		{Chip: "Tomahawk2", Year: 2016, CapacityTbps: 6.4, BufferMB: 42},
		{Chip: "Tomahawk3", Year: 2018, CapacityTbps: 12.8, BufferMB: 64},
	}
	for i := range rows {
		bits := rows[i].BufferMB * 8 * 1e6 / 1e12 // megabytes -> terabits
		rows[i].BufferOverCapU = bits / rows[i].CapacityTbps * 1e6
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 2: DCQCN (no PFC) buffer occupancy vs link speed.

// BufferCDFRow summarizes the buffer-occupancy distribution for one link
// speed.
type BufferCDFRow struct {
	LinkRate           units.Rate
	P50, P90, P99, Max units.Bytes
}

// Fig02Jobs declares Fig 2: DCQCN without PFC on the T2-shaped fabric under
// Google traffic at 75% load plus incast, one job per link speed; higher
// speeds lose control of the buffer.
func Fig02Jobs(scale Scale) []harness.Job {
	base := scale.singleSchemeJob("fig02", sim.SchemeDCQCN)
	base.Flows = scale.background(workload.Google(), 0.75, true, 2)
	base.Options = append(base.Options, pinDefaultSeed, func(o *sim.Options) { o.DisablePFC = true })
	grid := harness.Grid{
		Base: base,
		Axes: []harness.Axis{harness.IntAxis("gbps", []int{10, 40, 100}, func(j *harness.Job, gbps int) {
			j.Topology = func() *topology.Topology { return scale.closT2At(units.Rate(gbps) * units.Gbps) }
		})},
	}
	return grid.Jobs()
}

// Fig02FromRecords assembles the buffer-occupancy rows from harness records.
func Fig02FromRecords(recs []*harness.Record) []BufferCDFRow {
	rows := make([]BufferCDFRow, 0, len(recs))
	for _, rec := range recs {
		res := rec.Result
		rows = append(rows, BufferCDFRow{
			LinkRate: units.Rate(metaInt(rec, "gbps")) * units.Gbps,
			P50:      units.Bytes(res.BufferOccupancy.Percentile(50)),
			P90:      units.Bytes(res.BufferOccupancy.Percentile(90)),
			P99:      units.Bytes(res.BufferOccupancy.Percentile(99)),
			Max:      res.MaxBufferOccupancy,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 3: DCQCN tail FCT vs buffer/capacity ratio.

// BufferRatioRow is one buffer-size point of Fig 3.
type BufferRatioRow struct {
	BufferPerCapacityUS float64
	Buffer              units.Bytes
	Series              SlowdownSeries
}

// Fig03Jobs declares Fig 3: shrinking the switch buffer (expressed as
// buffer/switch-capacity in microseconds) hurts DCQCN tail latency. The
// buffer each ratio works out to on the scaled ToR is carried in Meta, so the
// rows can name it without the scale.
func Fig03Jobs(scale Scale) []harness.Job {
	// Switch capacity of the scaled ToR: (hosts + spines) * 100 Gbps.
	capacity := units.Rate(scale.HostsPerToR+scale.NumSpine) * 100 * units.Gbps
	base := scale.singleSchemeJob("fig03", sim.SchemeDCQCN)
	base.Topology = scale.closT2
	base.Flows = scale.background(workload.Google(), 0.75, true, 3)
	base.Options = append(base.Options, pinDefaultSeed)
	grid := harness.Grid{
		Base: base,
		Axes: []harness.Axis{harness.IntAxis("ratio_us", []int{10, 20, 30}, func(j *harness.Job, ratioUS int) {
			buffer := units.Bytes(float64(capacity) / 8 * float64(ratioUS) / 1e6)
			j.Meta["buffer_bytes"] = strconv.FormatInt(int64(buffer), 10)
			j.Options = append(j.Options, func(o *sim.Options) { o.SwitchBuffer = buffer })
		})},
	}
	return grid.Jobs()
}

// Fig03FromRecords assembles the buffer-ratio rows from harness records.
func Fig03FromRecords(recs []*harness.Record) []BufferRatioRow {
	rows := make([]BufferRatioRow, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, BufferRatioRow{
			BufferPerCapacityUS: float64(metaInt(rec, "ratio_us")),
			Buffer:              units.Bytes(metaInt(rec, "buffer_bytes")),
			Series:              seriesFromResult(rec.Meta["ratio_us"]+"us", rec.Result),
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 4: byte-weighted flow-size CDFs of the three workloads.

// WorkloadCDFRow is one workload's byte-weighted distribution.
type WorkloadCDFRow struct {
	Workload string
	// BytesWithin1BDP is the fraction of bytes in flows no larger than one
	// 100 Gbps x 8 us bandwidth-delay product (100 KB).
	BytesWithin1BDP float64
	// FlowsUnder1KB is the fraction of flows below 1 KB.
	FlowsUnder1KB float64
	Points        []workload.CDFPoint
}

// Fig04WorkloadCDF reproduces Fig 4 from the embedded distributions.
func Fig04WorkloadCDF() []WorkloadCDFRow {
	var rows []WorkloadCDFRow
	for _, cdf := range []*workload.CDF{workload.Google(), workload.FBHadoop(), workload.WebSearch()} {
		bw := cdf.ByteWeightedCDF()
		within := 0.0
		for _, p := range bw {
			if p.Size <= 100*units.KB {
				within = p.Cum
			}
		}
		rows = append(rows, WorkloadCDFRow{
			Workload:        cdf.Name,
			BytesWithin1BDP: within,
			FlowsUnder1KB:   cdf.FractionBelow(1 * units.KB),
			Points:          bw,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 5: the headline result. 99th-percentile FCT slowdown by flow size
// for all schemes.

// Fig05Variant selects which panel of Fig 5 to reproduce.
type Fig05Variant int

const (
	// Fig05aGoogleIncast is Google traffic at 60% + 5% incast.
	Fig05aGoogleIncast Fig05Variant = iota
	// Fig05bFBHadoopIncast is FB_Hadoop at 60% + 5% incast.
	Fig05bFBHadoopIncast
	// Fig05cGoogleNoIncast is Google at 65% with no incast.
	Fig05cGoogleNoIncast
)

// Fig05Result bundles the per-scheme curves plus the auxiliary measurements
// Fig 6 reports for the same runs.
type Fig05Result struct {
	Series []SlowdownSeries
	// Raw keeps the full results keyed by scheme label: Fig 6 reads its
	// buffer occupancy and pause-time fractions from them.
	Raw map[string]*sim.Result
}

// fig05Panels holds each panel's registry key (which also names its jobs and
// labels their artifacts) and workload.
var fig05Panels = [...]struct {
	key    string
	cdf    func() *workload.CDF
	load   float64
	incast bool
}{
	Fig05aGoogleIncast:   {"fig05a", workload.Google, 0.60, true},
	Fig05bFBHadoopIncast: {"fig05b", workload.FBHadoop, 0.60, true},
	Fig05cGoogleNoIncast: {"fig05c", workload.Google, 0.65, false},
}

// Fig05Jobs declares one harness job per scheme for a Fig 5 panel. schemes
// defaults to the paper's six when nil. Every scheme sees identical traffic:
// the workload seed is derived from the panel key, which is shared across
// schemes, while each job's simulation seed is derived from its own name.
func Fig05Jobs(scale Scale, variant Fig05Variant, schemes []sim.Scheme) []harness.Job {
	if schemes == nil {
		schemes = sim.AllSchemes()
	}
	panel := fig05Panels[variant]
	seed := harness.DeriveSeed(panel.key, scale.Name, "workload")
	grid := harness.Grid{
		Base: harness.Job{
			Name:     scale.Name + "/" + panel.key,
			Meta:     map[string]string{"fig": panel.key, "scale": scale.Name},
			Topology: scale.clos,
			Flows:    scale.background(panel.cdf(), panel.load, panel.incast, seed),
			Options:  []func(*sim.Options){scale.applyOptions},
		},
		Axes: []harness.Axis{harness.SchemeAxis(schemes)},
	}
	return grid.Jobs()
}

// Fig05FromRecords assembles a Fig 5 panel from completed harness records.
func Fig05FromRecords(recs []*harness.Record) *Fig05Result {
	out := &Fig05Result{Raw: map[string]*sim.Result{}}
	for _, rec := range recs {
		out.Series = append(out.Series, seriesFromResult(rec.Scheme, rec.Result))
		out.Raw[rec.Scheme] = rec.Result
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 7: dynamic vs static queue assignment.

// Fig07Result compares BFC, the BFC-VFID straw proposal, and SFQ with
// infinite buffering.
type Fig07Result struct {
	Series []SlowdownSeries
	// CollisionFraction is keyed by scheme label (Fig 7b).
	CollisionFraction map[string]float64
}

// Fig07Jobs declares Fig 7 on the Fig 5a workload: BFC, the BFC-VFID straw
// proposal (static queue assignment), and SFQ over 32 queues with infinite
// buffering.
func Fig07Jobs(scale Scale) []harness.Job {
	grid := harness.Grid{
		Base: harness.Job{
			Name:     scale.Name + "/fig07",
			Meta:     map[string]string{"fig": "fig07", "scale": scale.Name},
			Topology: scale.clos,
			Flows:    scale.background(workload.Google(), 0.60, true, 5),
			Options:  []func(*sim.Options){scale.applyOptions, pinDefaultSeed},
		},
		Axes: []harness.Axis{{Name: "variant", Values: []harness.Value{
			variant("BFC", sim.SchemeBFC),
			variant("BFC-VFID", sim.SchemeBFCStatic),
			variant("SFQ+InfBuffer", sim.SchemeIdealFQ, func(o *sim.Options) { o.IdealFQQueues = 32 }),
		}}},
	}
	return grid.Jobs()
}

// Fig07FromRecords assembles Fig 7 from harness records; only the two BFC
// variants assign queues, so only they get a collision fraction.
func Fig07FromRecords(recs []*harness.Record) *Fig07Result {
	out := &Fig07Result{CollisionFraction: map[string]float64{}}
	for _, rec := range recs {
		label := rec.Meta["variant"]
		out.Series = append(out.Series, seriesFromResult(label, rec.Result))
		if rec.Scheme != sim.SchemeIdealFQ.String() {
			out.CollisionFraction[label] = rec.Result.CollisionFraction()
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 8: incast fan-in sweep.

// FanInRow is one fan-in point of Fig 8 for one scheme.
type FanInRow struct {
	Scheme      string
	FanIn       int
	Utilization float64
	BufferP99   units.Bytes
}

// fig08Flows generates the Fig 8 workload for one fan-in: four long-lived
// flows per receiver plus a periodic incast to a fixed victim.
func (s Scale) fig08Flows(fanIn int) func(*topology.Topology) []*packet.Flow {
	return func(topo *topology.Topology) []*packet.Flow {
		hosts := topo.Hosts()
		// The paper uses one incast every 500 us; scale the interval with the
		// horizon so several events always occur even at reduced scale.
		incastInterval := s.Duration / 4
		if incastInterval > 500*units.Microsecond {
			incastInterval = 500 * units.Microsecond
		}
		rng := rand.New(rand.NewSource(11))
		var flows []*packet.Flow
		// Four long-lived flows per receiver; keep the receiver count modest
		// at reduced scale (a quarter of the hosts).
		numReceivers := max(len(hosts)/4, 1)
		id := packet.FlowID(1)
		for i := 0; i < numReceivers; i++ {
			dst := hosts[i]
			ll := workload.LongLivedFlows(rng, hosts, dst, 4, id)
			id += 4
			flows = append(flows, ll...)
		}
		incast, err := workload.Generate(workload.Config{
			Hosts:    hosts,
			CDF:      workload.Google(),
			Load:     0,
			HostRate: topo.HostRate(hosts[0]),
			Duration: s.Duration,
			Seed:     harness.DeriveSeed("fig08", s.Name, "incast"),
			Incast: workload.IncastConfig{
				Enabled:       true,
				FanIn:         fanIn,
				AggregateSize: s.IncastAggregate,
				Interval:      incastInterval,
			},
		})
		if err != nil {
			panic(err)
		}
		for _, f := range incast.Flows {
			f.ID = id
			id++
		}
		return append(flows, incast.Flows...)
	}
}

// Fig08Jobs declares the Fig 8 grid, incast fan-in x scheme: long-lived flows
// to every receiver plus a periodic 20 MB incast whose fan-in increases;
// DCQCN's utilization collapses while BFC stays near full utilization.
func Fig08Jobs(scale Scale) []harness.Job {
	fanIns := scale.sweep([]int{10, 50, 100, 200, 400, 800})
	grid := harness.Grid{
		Base: harness.Job{
			Name:     scale.Name + "/fig08",
			Meta:     map[string]string{"fig": "fig08", "scale": scale.Name},
			Topology: scale.closT2,
			Options: []func(*sim.Options){scale.applyOptions, func(o *sim.Options) {
				// Long-lived flows never finish, so no drain period is
				// needed; keeping it would dilute the utilization
				// denominator.
				o.Drain = 50 * units.Microsecond
			}},
		},
		Axes: []harness.Axis{
			harness.IntAxis("fanin", fanIns, func(j *harness.Job, fanIn int) {
				j.Flows = scale.fig08Flows(fanIn)
			}),
			harness.SchemeAxis([]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCNWin}),
		},
	}
	return grid.Jobs()
}

// Fig08FromRecords assembles the fan-in sweep rows from harness records.
func Fig08FromRecords(recs []*harness.Record) []FanInRow {
	rows := make([]FanInRow, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, FanInRow{
			Scheme:      rec.Scheme,
			FanIn:       metaInt(rec, "fanin"),
			Utilization: rec.Result.ReceiverUtilization,
			BufferP99:   units.Bytes(rec.Result.BufferOccupancy.Percentile(99)),
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 9: cross-data-center traffic.

// CrossDCRow is one scheme's intra- and inter-DC tail slowdown (Fig 9).
type CrossDCRow struct {
	Scheme   string
	IntraP99 float64
	InterP99 float64
}

// Fig09Jobs declares one job per scheme for the cross-DC experiment: two data
// centers joined by a 100 Gbps link with 200 us one-way delay, FB_Hadoop
// traffic with 20% inter-DC flows. The
// intra/inter split needs the completed flow list, so it is computed
// in-worker by each job's Extract hook and carried in Record.Extra.
func Fig09Jobs(scale Scale) []harness.Job {
	duration := scale.Duration * 10 // 10 Gbps links need a longer horizon
	seed := harness.DeriveSeed("fig09", scale.Name, "workload")
	var jobs []harness.Job
	for _, scheme := range []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCNWin} {
		// The Topology builder fills in the cross-DC host partition the
		// Flows and Extract closures need; the harness guarantees it runs
		// first within each execution.
		var inter *workload.InterDCConfig
		jobs = append(jobs, harness.Job{
			Name:   fmt.Sprintf("%s/fig09/scheme=%s", scale.Name, scheme),
			Scheme: scheme,
			Meta:   map[string]string{"fig": "fig09", "scale": scale.Name, "scheme": scheme.String()},
			Topology: func() *topology.Topology {
				x := topology.NewCrossDC(topology.CrossDCConfig{
					DC: topology.ClosConfig{
						Name:        "crossdc-dc",
						NumToR:      max(scale.NumToR/2, 1),
						NumSpine:    max(scale.NumSpine/2, 1),
						HostsPerToR: max(scale.HostsPerToR/2, 2),
						LinkRate:    10 * units.Gbps,
						LinkDelay:   1 * units.Microsecond,
					},
					GatewayRate:  100 * units.Gbps,
					GatewayDelay: 200 * units.Microsecond,
				})
				inter = &workload.InterDCConfig{HostsDC1: x.HostsDC1, HostsDC2: x.HostsDC2, Fraction: 0.2}
				return x.Topology
			},
			Flows: func(topo *topology.Topology) []*packet.Flow {
				tr, err := workload.Generate(workload.Config{
					Hosts:    topo.Hosts(),
					CDF:      workload.FBHadoop(),
					Load:     0.65,
					HostRate: 10 * units.Gbps,
					Duration: duration,
					Seed:     seed,
					InterDC:  inter,
				})
				if err != nil {
					panic(err)
				}
				return tr.Flows
			},
			Options: []func(*sim.Options){func(o *sim.Options) {
				o.Duration = duration
				o.Drain = 5 * units.Millisecond
				o.SwitchBuffer = 9 * units.MB
			}},
			Extract: func(topo *topology.Topology, opts *sim.Options, flows []*packet.Flow, res *sim.Result) map[string]float64 {
				// Re-bucket completions into intra vs inter using the flow
				// list.
				var intraD, interD stats.Distribution
				for _, f := range flows {
					if f.FinishTime == 0 || f.IsIncast || f.LongLived {
						continue
					}
					slow := float64(f.FCT()) / float64(sim.IdealFCT(topo, opts.MTU, f))
					if slow < 1 {
						slow = 1
					}
					if inter.IsInterDC(f) {
						interD.Add(slow)
					} else {
						intraD.Add(slow)
					}
				}
				return map[string]float64{
					"intra_p99": intraD.Percentile(99),
					"inter_p99": interD.Percentile(99),
				}
			},
		})
	}
	return jobs
}

// Fig09FromRecords assembles the cross-DC rows from harness records.
func Fig09FromRecords(recs []*harness.Record) []CrossDCRow {
	rows := make([]CrossDCRow, 0, len(recs))
	for _, rec := range recs {
		intra, okIntra := rec.Extra["intra_p99"]
		inter, okInter := rec.Extra["inter_p99"]
		if !okIntra || !okInter {
			panic(fmt.Sprintf("experiments: record %q lacks the intra/inter p99 metrics", rec.Name))
		}
		rows = append(rows, CrossDCRow{
			Scheme:   rec.Scheme,
			IntraP99: intra,
			InterP99: inter,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 10: physical-queue buffering vs concurrent flows.

// BufferOptRow is one point of Fig 10.
type BufferOptRow struct {
	Scheme          string
	ConcurrentFlows int
	QueueMax        units.Bytes // largest physical-queue depth at any sampling tick
	TwoHopBDP       units.Bytes
}

// Fig10Jobs declares Fig 10: concurrent long-lived flows to a single
// receiver; BFC's resume throttling keeps the shared physical queue near two
// hop-BDPs while BFC-BufferOpt (resume-all) grows linearly. As in the paper
// the senders sit behind a two-tier fabric, so the bottleneck ToR's upstream
// (the spines) paces resumed flows rather than the NICs bursting directly
// into the measured queue.
//
// The drain is sim's default 2 ms at every scale, not the scale's: the figure
// used to set Drain = 0 meaning "long-lived flows need no drain", which
// Options.Validate reads as "use the default", so 2 ms is what its rows have
// always been measured with.
func Fig10Jobs(scale Scale) []harness.Job {
	grid := harness.Grid{
		Base: harness.Job{
			Name:     scale.Name + "/fig10",
			Meta:     map[string]string{"fig": "fig10", "scale": scale.Name},
			Topology: scale.closT2,
			Options: []func(*sim.Options){scale.applyOptions, pinDefaultSeed, func(o *sim.Options) {
				o.Drain = 2 * units.Millisecond
			}},
		},
		Axes: []harness.Axis{
			harness.IntAxis("flows", scale.sweep([]int{8, 32, 64, 128, 256}), func(j *harness.Job, count int) {
				j.Flows = func(topo *topology.Topology) []*packet.Flow {
					hosts := topo.Hosts()
					return workload.LongLivedFlows(rand.New(rand.NewSource(23)), hosts, hosts[0], count, 1)
				}
			}),
			{Name: "resume", Values: []harness.Value{
				variant("BFC", sim.SchemeBFC, func(o *sim.Options) { o.ResumeAll = false }),
				variant("BFC-BufferOpt", sim.SchemeBFC, func(o *sim.Options) { o.ResumeAll = true }),
			}},
		},
	}
	return grid.Jobs()
}

// Fig10FromRecords assembles the queue-depth rows from harness records.
func Fig10FromRecords(recs []*harness.Record) []BufferOptRow {
	hopRTT := 2 * (1*units.Microsecond + units.SerializationTime(1048, 100*units.Gbps))
	rows := make([]BufferOptRow, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, BufferOptRow{
			Scheme:          rec.Meta["resume"],
			ConcurrentFlows: metaInt(rec, "flows"),
			QueueMax:        rec.Result.MaxPhysicalQueueBytes,
			TwoHopBDP:       2 * units.BDP(100*units.Gbps, hopRTT),
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 11: the high-priority queue ablation.

// Fig11Result compares BFC with and without the high-priority queue.
type Fig11Result struct {
	Series []SlowdownSeries
	// OccupiedQueuesP99 is keyed by label.
	OccupiedQueuesP99 map[string]float64
}

// Fig11Jobs declares Fig 11 on a high-load Google workload: BFC with and
// without the high-priority queue.
func Fig11Jobs(scale Scale) []harness.Job {
	grid := harness.Grid{
		Base: harness.Job{
			Name:     scale.Name + "/fig11",
			Meta:     map[string]string{"fig": "fig11", "scale": scale.Name},
			Topology: scale.clos,
			Flows:    scale.background(workload.Google(), 0.80, true, 29),
			Options:  []func(*sim.Options){scale.applyOptions, pinDefaultSeed},
		},
		Axes: []harness.Axis{{Name: "variant", Values: []harness.Value{
			variant("BFC", sim.SchemeBFC, func(o *sim.Options) { o.HighPriorityQueue = true }),
			variant("BFC-HighPriorityQ", sim.SchemeBFC, func(o *sim.Options) { o.HighPriorityQueue = false }),
		}}},
	}
	return grid.Jobs()
}

// Fig11FromRecords assembles the ablation from harness records.
func Fig11FromRecords(recs []*harness.Record) *Fig11Result {
	out := &Fig11Result{OccupiedQueuesP99: map[string]float64{}}
	for _, rec := range recs {
		label := rec.Meta["variant"]
		out.Series = append(out.Series, seriesFromResult(label, rec.Result))
		out.OccupiedQueuesP99[label] = rec.Result.OccupiedQueues.Percentile(99)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 12-14: resource sensitivity sweeps.

// SensitivityRow is one point of a resource sweep.
type SensitivityRow struct {
	Parameter int
	Series    SlowdownSeries
	// CollisionFraction is physical-queue assignment collisions (Fig 12a);
	// VFIDCollisionFraction, per-packet VFID aliasing, and OverflowFraction
	// are the flow table's (Fig 13a).
	CollisionFraction     float64
	VFIDCollisionFraction float64
	OverflowFraction      float64
}

// ---------------------------------------------------------------------------
// Figure 15 (beyond the paper): scheme robustness under link failure and
// recovery. The paper never runs its schemes through a fault; this experiment
// fails a core link mid-run, recovers it later, and compares how every
// scheme's tail latency degrades during the outage and how quickly it heals.

// ScenarioLinkFailRecover builds the standard Fig 15 scenario on the scaled
// Clos: the tor0-spine0 link fails a quarter into the workload horizon and
// recovers at 60% of it.
func ScenarioLinkFailRecover(scale Scale) *scenario.Spec {
	return &scenario.Spec{
		Name: "link-fail-recover",
		Seed: 15,
		Events: []scenario.Event{
			{At: scale.Duration / 4, Kind: scenario.LinkDown,
				Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
			{At: scale.Duration * 6 / 10, Kind: scenario.LinkUp,
				Link: &scenario.LinkRef{A: "tor0", B: "spine0"}},
		},
	}
}

// Fig15Row is one scheme's robustness summary under fail/recover.
type Fig15Row struct {
	Scheme string
	// PreP99, FailP99 and RecoverP99 are the overall p99 FCT slowdowns of
	// background flows started before the failure, during the outage, and
	// after recovery.
	PreP99, FailP99, RecoverP99 float64
	// Reroutes counts next-hop table entries rewritten by the two route
	// recomputations; Stranded and NoRoute count packets lost to the outage.
	Reroutes int
	Stranded uint64
	NoRoute  uint64
	// Completed / Offered count background flows across the whole run.
	Completed, Offered int
}

// Fig15Jobs declares one harness job per scheme, all seeing identical
// traffic and the identical fail/recover scenario.
func Fig15Jobs(scale Scale, schemes []sim.Scheme) []harness.Job {
	spec := ScenarioLinkFailRecover(scale)
	return scale.scenarioGrid(scale.Name+"/fig15",
		map[string]string{"fig": "fig15", "scale": scale.Name, "scenario": spec.Name},
		harness.DeriveSeed("fig15", scale.Name, "workload"), spec, schemes)
}

// scenarioGrid compiles one job per scheme running spec on the scale's Clos
// under the standard Fig 5a background workload (Google at 60% + 5% incast):
// every scheme (the paper's six when schemes is nil) sees identical traffic
// and identical injected events.
func (s Scale) scenarioGrid(name string, meta map[string]string, seed int64, spec *scenario.Spec, schemes []sim.Scheme) []harness.Job {
	if schemes == nil {
		schemes = sim.AllSchemes()
	}
	grid := harness.Grid{
		Base: harness.Job{
			Name:     name,
			Meta:     meta,
			Topology: s.clos,
			Flows:    s.background(workload.Google(), 0.60, true, seed),
			Options: []func(*sim.Options){s.applyOptions, func(o *sim.Options) {
				o.Scenario = spec
			}},
		},
		Axes: []harness.Axis{harness.SchemeAxis(schemes)},
	}
	return grid.Jobs()
}

// Fig15FromRecords assembles the robustness table from harness records.
func Fig15FromRecords(recs []*harness.Record) []Fig15Row {
	rows := make([]Fig15Row, 0, len(recs))
	for _, rec := range recs {
		m := rec.Result.Scenario
		if m == nil || len(m.Phases) != 3 {
			panic(fmt.Sprintf("experiments: record %q lacks the fail/recover scenario phases", rec.Name))
		}
		rows = append(rows, Fig15Row{
			Scheme:     rec.Scheme,
			PreP99:     m.Phases[0].FCT.OverallPercentile(99),
			FailP99:    m.Phases[1].FCT.OverallPercentile(99),
			RecoverP99: m.Phases[2].FCT.OverallPercentile(99),
			Reroutes:   m.Reroutes,
			Stranded:   m.StrandedPackets,
			NoRoute:    m.NoRouteDrops,
			Completed:  rec.Result.FlowsCompleted,
			Offered:    rec.Result.FlowsTotal,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 16 (beyond the paper): the scale tier. The paper stops at 128 hosts
// on a two-tier Clos; this sweep grows the fabric to three-tier fat-trees of
// 1024+ hosts and compares the schemes as the topology scales. Runs use
// streaming statistics (constant-memory quantile sketches), so the stats
// footprint stays flat while the flow count grows with the host count.

// Fig16Row is one (scheme, host count) point of the scale sweep.
type Fig16Row struct {
	Scheme string
	// Hosts is the built fabric's host count; Switches its switch count.
	Hosts, Switches int
	// P99 is the overall p99 FCT slowdown of background flows.
	P99 float64
	// Utilization is delivered payload over aggregate host capacity.
	Utilization float64
	// BufferP99 is the p99 shared-buffer occupancy across switches.
	BufferP99 units.Bytes
	// StatsSamples counts the samples the run's FCT collector and buffer
	// distribution hold in memory — bounded by the sketch capacity, not the
	// flow count.
	StatsSamples int
	// Events is the number of simulator events executed.
	Events uint64
	// Completed / Offered count background flows.
	Completed, Offered int
	// Digest is the SHA-256 of the JSON-marshalled Result; identical digests
	// across -parallel settings prove the sweep's determinism.
	Digest string
}

// Fig16HostCounts returns the default host-count sweep for the scale:
// 1x/2x/4x/8x the scale's two-tier host count (trimmed by SweepPoints),
// rounded up to whole fat-tree pods. Untrimmed scales (Full) extend the
// sweep with 16x and 32x — the deep end of the scale tier, which for the
// paper-boundary base of 128 reaches the 2048- and 4096-host fat-trees that
// only the sharded engine and streaming statistics make tractable.
func Fig16HostCounts(scale Scale) []int {
	base := scale.NumToR * scale.HostsPerToR
	if base < 8 {
		base = 8
	}
	points := []int{base, base * 2, base * 4, base * 8}
	if scale.SweepPoints <= 0 {
		points = append(points, base*16, base*32)
	}
	counts := scale.sweep(points)
	var out []int
	seen := map[int]bool{}
	for _, n := range counts {
		actual := topology.FatTreeForHosts(n, 100*units.Gbps, units.Microsecond).NumHosts()
		if !seen[actual] {
			seen[actual] = true
			out = append(out, actual)
		}
	}
	return out
}

// Fig16Jobs declares the scale-sweep grid: host count x scheme, every scheme
// of a host count seeing identical traffic (the workload seed is derived from
// the host count, not the scheme). hostCounts defaults to
// Fig16HostCounts(scale) and schemes to the paper's six when nil. Every job
// runs with StreamingStats enabled.
func Fig16Jobs(scale Scale, hostCounts []int, schemes []sim.Scheme) []harness.Job {
	if hostCounts == nil {
		hostCounts = Fig16HostCounts(scale)
	}
	if schemes == nil {
		schemes = sim.AllSchemes()
	}
	grid := harness.Grid{
		Base: harness.Job{
			Name: scale.Name + "/fig16",
			Meta: map[string]string{"fig": "fig16", "scale": scale.Name},
			Options: []func(*sim.Options){scale.applyOptions, func(o *sim.Options) {
				o.StreamingStats = true
			}},
		},
		Axes: []harness.Axis{
			harness.IntAxis("hosts", hostCounts, func(j *harness.Job, n int) {
				cfg := topology.FatTreeForHosts(n, 100*units.Gbps, units.Microsecond)
				seed := harness.DeriveSeed("fig16", scale.Name, "workload", strconv.Itoa(n))
				j.Topology = func() *topology.Topology { return topology.NewFatTree(cfg) }
				j.Flows = scale.background(workload.Google(), 0.60, false, seed)
			}),
			harness.SchemeAxis(schemes),
		},
	}
	return grid.Jobs()
}

// Fig16FromRecords assembles the scale-sweep rows from harness records.
func Fig16FromRecords(recs []*harness.Record) []Fig16Row {
	rows := make([]Fig16Row, 0, len(recs))
	for _, rec := range recs {
		hosts := metaInt(rec, "hosts")
		res := rec.Result
		digest, err := sim.ResultDigest(res)
		if err != nil {
			panic(fmt.Sprintf("experiments: record %q: %v", rec.Name, err))
		}
		rows = append(rows, Fig16Row{
			Scheme:       rec.Scheme,
			Hosts:        hosts,
			Switches:     fig16Switches(hosts),
			P99:          res.FCT.OverallPercentile(99),
			Utilization:  res.Utilization,
			BufferP99:    units.Bytes(res.BufferOccupancy.Percentile(99)),
			StatsSamples: res.FCT.StoredSamples() + res.BufferOccupancy.StoredSamples(),
			Events:       res.Events,
			Completed:    res.FlowsCompleted,
			Offered:      res.FlowsTotal,
			Digest:       digest,
		})
	}
	return rows
}

// fig16Switches recomputes the switch count of a sweep point's fabric from
// its host count (cheaper than rebuilding the topology for a report row).
func fig16Switches(hosts int) int {
	cfg := topology.FatTreeForHosts(hosts, 100*units.Gbps, units.Microsecond)
	return cfg.Pods*(cfg.EdgePerPod+cfg.AggPerPod) + cfg.NumCore()
}

// SensitivityFromRecords assembles resource-sweep rows from harness records.
func SensitivityFromRecords(recs []*harness.Record) []SensitivityRow {
	rows := make([]SensitivityRow, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, SensitivityRow{
			Parameter:             metaInt(rec, "param"),
			Series:                seriesFromResult(rec.Meta["param"], rec.Result),
			CollisionFraction:     rec.Result.CollisionFraction(),
			VFIDCollisionFraction: rec.Result.VFIDCollisionFraction(),
			OverflowFraction:      rec.Result.OverflowFraction(),
		})
	}
	return rows
}
