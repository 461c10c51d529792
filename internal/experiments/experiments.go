// Package experiments defines one named, parameterized experiment per table
// and figure in the paper's evaluation (§4). Every figure is one entry of the
// Figures table (registry.go): a key, a description, a FigNNJobs function
// that compiles the topology, workload and schemes the paper describes into
// harness jobs, and a renderer that prints the figure's rows from the
// completed records (through the matching FigNNFromRecords). Listing, running,
// persisting and serving a figure all go through that one entry. A single run
// outside the table — what cmd/bfcsim's flags declare — is a RunSpec (run.go).
//
// Every figure point, scenario suite and run is declared as data, a point
// (point.go): fabric, traffic, horizon and what the figure varies. One
// compiler turns a point into harness jobs and labels each with the point's
// digest, so every parameter keys the job's content hash.
//
// Every experiment takes a Scale. Reduced() keeps the topology shape, load
// level and flow-size distribution of the paper but shrinks host counts and
// durations so the whole suite runs in minutes on a laptop; Full() uses the
// paper's parameters.
package experiments

import (
	"fmt"
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

// t1 and t2 name the scaled fabrics shaped like the paper's T1 and T2 (half
// T1's racks).
func (s Scale) t1() string { return fmt.Sprintf("clos:%dx%dx%d", s.NumToR, s.NumSpine, s.HostsPerToR) }
func (s Scale) t2() string {
	return fmt.Sprintf("clos:%dx%dx%d", max(s.NumToR/2, 1), s.NumSpine, s.HostsPerToR)
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

// traffic declares a point on fabric under the standard background workload
// (plus the scale's 5% incast when incast is set) over the scale's horizon,
// every link at the paper's 100 Gbps.
func (s Scale) traffic(fabric, cdf string, load float64, incast bool, seed int64) point {
	p := point{Fabric: fabric, Gbps: 100, Traffic: "background", Workload: cdf, Load: load,
		WorkloadSeed: seed, Duration: s.Duration, Drain: s.Drain}
	if incast {
		p.FanIn, p.IncastBytes = s.IncastFanIn, s.IncastAggregate
	}
	return p
}

// labels returns the labels of a job of figure fig at the scale, plus the
// given key/value pairs.
func (s Scale) labels(fig string, kv ...string) map[string]string {
	m := map[string]string{"fig": fig, "scale": s.Name}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// SlowdownSeries is one labelled FCT-slowdown-vs-flow-size curve.
type SlowdownSeries struct {
	Label string
	// P99BySize maps flow-size bucket labels to p99 slowdowns.
	P99BySize map[string]float64
	// Overall is the p99 slowdown over all flows.
	Overall float64
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
	}
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
	var jobs []harness.Job
	for _, gbps := range []int{10, 40, 100} {
		p := scale.traffic(scale.t2(), "google", 0.75, true, 2)
		p.Gbps, p.SimSeed, p.NoPFC = gbps, &defaultSeed, true
		v := strconv.Itoa(gbps)
		jobs = append(jobs, p.job(scale.Name+"/fig02/gbps="+v, sim.SchemeDCQCN, scale.labels("fig02", "scheme", "DCQCN", "gbps", v)))
	}
	return jobs
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
	var jobs []harness.Job
	for _, ratioUS := range []int{10, 20, 30} {
		p := scale.traffic(scale.t2(), "google", 0.75, true, 3)
		p.SimSeed, p.Buffer = &defaultSeed, units.Bytes(float64(capacity)/8*float64(ratioUS)/1e6)
		v := strconv.Itoa(ratioUS)
		jobs = append(jobs, p.job(scale.Name+"/fig03/ratio_us="+v, sim.SchemeDCQCN, scale.labels("fig03",
			"scheme", "DCQCN", "ratio_us", v, "buffer_bytes", strconv.FormatInt(int64(p.Buffer), 10))))
	}
	return jobs
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
}

// Fig04WorkloadCDF reproduces Fig 4 from the embedded distributions.
func Fig04WorkloadCDF() []WorkloadCDFRow {
	var rows []WorkloadCDFRow
	for _, cdf := range []*workload.CDF{workload.Google(), workload.FBHadoop(), workload.WebSearch()} {
		within := 0.0
		for _, p := range cdf.ByteWeightedCDF() {
			if p.Size <= 100*units.KB {
				within = p.Cum
			}
		}
		rows = append(rows, WorkloadCDFRow{
			Workload:        cdf.Name,
			BytesWithin1BDP: within,
			FlowsUnder1KB:   cdf.FractionBelow(1 * units.KB),
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

// fig05Panels holds each panel's registry key (which also names its jobs and
// labels their artifacts) and workload.
var fig05Panels = [...]struct {
	key, workload string
	load          float64
	incast        bool
}{
	Fig05aGoogleIncast:   {"fig05a", "google", 0.60, true},
	Fig05bFBHadoopIncast: {"fig05b", "fb_hadoop", 0.60, true},
	Fig05cGoogleNoIncast: {"fig05c", "google", 0.65, false},
}

// Fig05Jobs declares one harness job per scheme for a Fig 5 panel. schemes
// defaults to the paper's six when nil. Every scheme sees identical traffic:
// the workload seed is derived from the panel key, which is shared across
// schemes, while each job's simulation seed is derived from its own name.
func Fig05Jobs(scale Scale, variant Fig05Variant, schemes []sim.Scheme) []harness.Job {
	panel := fig05Panels[variant]
	p := scale.traffic(scale.t1(), panel.workload, panel.load, panel.incast, harness.DeriveSeed(panel.key, scale.Name, "workload"))
	return p.grid(scale.Name+"/"+panel.key, scale.labels(panel.key), schemes)
}

// Fig05FromRecords assembles a Fig 5 panel, one curve per scheme, from
// completed harness records.
func Fig05FromRecords(recs []*harness.Record) []SlowdownSeries {
	out := make([]SlowdownSeries, 0, len(recs))
	for _, rec := range recs {
		out = append(out, seriesFromResult(rec.Scheme, rec.Result))
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
	var jobs []harness.Job
	for _, v := range []struct {
		label         string
		scheme        sim.Scheme
		idealFQQueues int
	}{{"BFC", sim.SchemeBFC, 0}, {"BFC-VFID", sim.SchemeBFCStatic, 0}, {"SFQ+InfBuffer", sim.SchemeIdealFQ, 32}} {
		p := scale.traffic(scale.t1(), "google", 0.60, true, 5)
		p.SimSeed, p.IdealFQQueues = &defaultSeed, v.idealFQQueues
		jobs = append(jobs, p.job(scale.Name+"/fig07/variant="+v.label, v.scheme, scale.labels("fig07", "variant", v.label)))
	}
	return jobs
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

// Fig08Jobs declares the Fig 8 grid, incast fan-in x scheme: long-lived flows
// to every receiver plus a periodic 20 MB incast whose fan-in increases;
// DCQCN's utilization collapses while BFC stays near full utilization.
func Fig08Jobs(scale Scale) []harness.Job {
	var jobs []harness.Job
	for _, fanIn := range scale.sweep([]int{10, 50, 100, 200, 400, 800}) {
		p := scale.traffic(scale.t2(), "google", 0, false, harness.DeriveSeed("fig08", scale.Name, "incast"))
		p.Traffic, p.FanIn, p.IncastBytes = "fanin", fanIn, scale.IncastAggregate
		// Long-lived flows never finish, so no drain period is needed;
		// keeping it would dilute the utilization denominator.
		p.Drain = 50 * units.Microsecond
		v := strconv.Itoa(fanIn)
		jobs = append(jobs, p.grid(scale.Name+"/fig08/fanin="+v, scale.labels("fig08", "fanin", v),
			[]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCNWin})...)
	}
	return jobs
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
// traffic with 20% inter-DC flows. The intra/inter split needs the completed
// flow list, so it is computed in-worker by each job's Extract hook
// (interDCTails) and carried in Record.Extra.
func Fig09Jobs(scale Scale) []harness.Job {
	p := point{
		Fabric: fmt.Sprintf("crossdc:%dx%dx%d", max(scale.NumToR/2, 1), max(scale.NumSpine/2, 1), max(scale.HostsPerToR/2, 2)),
		Gbps:   10, Traffic: "background", Workload: "fb_hadoop", Load: 0.65,
		WorkloadSeed: harness.DeriveSeed("fig09", scale.Name, "workload"),
		Duration:     scale.Duration * 10, // 10 Gbps links need a longer horizon
		Drain:        5 * units.Millisecond, Buffer: 9 * units.MB,
	}
	return p.grid(scale.Name+"/fig09", scale.labels("fig09"), []sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCNWin})
}

// interDCTails is Fig 9's Extract: the p99 FCT slowdowns of the completed
// background flows inside one data center and across the two.
func interDCTails(topo *topology.Topology, flows []*packet.Flow, inter *workload.InterDCConfig) map[string]float64 {
	var intraD, interD stats.Distribution
	for _, f := range flows {
		if f.FinishTime == 0 || f.IsIncast || f.LongLived {
			continue
		}
		slow := max(float64(f.FCT())/float64(sim.IdealFCT(topo, f)), 1)
		if inter.IsInterDC(f) {
			interD.Add(slow)
		} else {
			intraD.Add(slow)
		}
	}
	return map[string]float64{"intra_p99": intraD.Percentile(99), "inter_p99": interD.Percentile(99)}
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
// used to set Drain = 0 meaning "long-lived flows need no drain", which the
// point compiler reads as "keep sim's default", so 2 ms is what its rows
// have always been measured with.
func Fig10Jobs(scale Scale) []harness.Job {
	var jobs []harness.Job
	for _, count := range scale.sweep([]int{8, 32, 64, 128, 256}) {
		for _, label := range []string{"BFC", "BFC-BufferOpt"} {
			p := point{Fabric: scale.t2(), Gbps: 100, Traffic: "longlived", Flows: count, WorkloadSeed: 23,
				SimSeed: &defaultSeed, Duration: scale.Duration, Drain: 2 * units.Millisecond, ResumeAll: label == "BFC-BufferOpt"}
			v := strconv.Itoa(count)
			jobs = append(jobs, p.job(scale.Name+"/fig10/flows="+v+"/resume="+label, sim.SchemeBFC,
				scale.labels("fig10", "flows", v, "resume", label)))
		}
	}
	return jobs
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
	var jobs []harness.Job
	for _, label := range []string{"BFC", "BFC-HighPriorityQ"} {
		p := scale.traffic(scale.t1(), "google", 0.80, true, 29)
		p.SimSeed, p.NoHighPriorityQueue = &defaultSeed, label == "BFC-HighPriorityQ"
		jobs = append(jobs, p.job(scale.Name+"/fig11/variant="+label, sim.SchemeBFC, scale.labels("fig11", "variant", label)))
	}
	return jobs
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
	p, err := scale.traffic(scale.t1(), "google", 0.60, true, harness.DeriveSeed("fig15", scale.Name, "workload")).withScenario(spec)
	if err != nil {
		panic(err)
	}
	return p.grid(scale.Name+"/fig15", scale.labels("fig15", "scenario", spec.Name), schemes)
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
	var jobs []harness.Job
	for _, n := range hostCounts {
		v := strconv.Itoa(n)
		p := scale.traffic("fattree:"+v, "google", 0.60, false, harness.DeriveSeed("fig16", scale.Name, "workload", v))
		p.Streaming = true
		jobs = append(jobs, p.grid(scale.Name+"/fig16/hosts="+v, scale.labels("fig16", "hosts", v), schemes)...)
	}
	return jobs
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
