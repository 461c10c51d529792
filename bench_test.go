// bench_test.go is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §3 for the figure → bench
// mapping and EXPERIMENTS.md for paper-vs-measured numbers).
//
// By default the benchmarks run at reduced scale so the whole suite finishes
// in minutes; set BFC_FULL=1 to use the paper-scale parameters (hours of CPU
// time). Each benchmark prints the rows/series the corresponding figure
// plots, and reports its headline number via b.ReportMetric so regressions
// are visible in -benchmem output diffs.
package bfc_test

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// benchScale picks reduced or full scale (BFC_FULL=1).
func benchScale() experiments.Scale {
	if os.Getenv("BFC_FULL") == "1" {
		return experiments.Full()
	}
	return experiments.Reduced()
}

// quickScale is used by the heaviest multi-scheme benchmarks so that the
// default `go test -bench=.` stays tractable; BFC_FULL=1 still upgrades it.
func quickScale() experiments.Scale {
	if os.Getenv("BFC_FULL") == "1" {
		return experiments.Full()
	}
	s := experiments.Tiny()
	s.Name = "bench-quick"
	return s
}

func BenchmarkFig01_HardwareTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig01HardwareTrend()
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig1 %-10s %d  %5.1f Tbps  %5.1f MB  %6.1f us buffer/capacity",
					r.Chip, r.Year, r.CapacityTbps, r.BufferMB, r.BufferOverCapU)
			}
		}
	}
}

func BenchmarkFig02_DCQCNBufferVsLinkSpeed(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig02BufferVsLinkSpeed(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig2 %-8v p50=%v p90=%v p99=%v max=%v", r.LinkRate, r.P50, r.P90, r.P99, r.Max)
			}
			b.ReportMetric(float64(rows[len(rows)-1].P99), "p99BufferBytes@100G")
		}
	}
}

func BenchmarkFig03_DCQCNBufferRatio(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig03BufferRatio(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig3 buffer/capacity=%.0fus buffer=%v p99slowdown=%.2f",
					r.BufferPerCapacityUS, r.Buffer, r.Series.Overall)
			}
			b.ReportMetric(rows[0].Series.Overall, "p99slowdown@10us")
		}
	}
}

func BenchmarkFig04_WorkloadCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig04WorkloadCDF()
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig4 %-10s bytes<=1BDP=%.2f flows<1KB=%.2f", r.Workload, r.BytesWithin1BDP, r.FlowsUnder1KB)
			}
		}
	}
}

func benchFig05(b *testing.B, variant experiments.Fig05Variant, name string) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig05(scale, variant, nil)
		if i == 0 {
			b.Log("\n" + experiments.FormatSeries(name, res.Series))
			for _, s := range res.Series {
				if s.Label == "BFC" {
					b.ReportMetric(s.Overall, "BFC-p99slowdown")
				}
				if s.Label == "DCQCN" {
					b.ReportMetric(s.Overall, "DCQCN-p99slowdown")
				}
			}
		}
	}
}

func BenchmarkFig05a_GoogleIncast(b *testing.B) {
	benchFig05(b, experiments.Fig05aGoogleIncast, "Fig5a Google + incast, p99 FCT slowdown")
}

func BenchmarkFig05b_FBHadoopIncast(b *testing.B) {
	benchFig05(b, experiments.Fig05bFBHadoopIncast, "Fig5b FB_Hadoop + incast, p99 FCT slowdown")
}

func BenchmarkFig05c_GoogleNoIncast(b *testing.B) {
	benchFig05(b, experiments.Fig05cGoogleNoIncast, "Fig5c Google without incast, p99 FCT slowdown")
}

func BenchmarkFig06a_BufferOccupancy(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig05(scale, experiments.Fig05aGoogleIncast,
			[]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN, sim.SchemeDCQCNWin})
		if i == 0 {
			for _, label := range sortedKeys(res.BufferP99) {
				b.Logf("Fig6a %-12s p99 buffer occupancy = %v", label, res.BufferP99[label])
			}
			b.ReportMetric(float64(res.BufferP99["BFC"]), "BFC-p99BufferBytes")
			b.ReportMetric(float64(res.BufferP99["DCQCN"]), "DCQCN-p99BufferBytes")
		}
	}
}

func BenchmarkFig06b_PauseTime(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig05(scale, experiments.Fig05aGoogleIncast,
			[]sim.Scheme{sim.SchemeBFC, sim.SchemeDCQCN})
		if i == 0 {
			for _, label := range sortedKeys(res.PauseFraction) {
				fracs := res.PauseFraction[label]
				b.Logf("Fig6b %-12s ToR->Spine=%.4f Spine->ToR=%.4f",
					label, fracs["ToR->Spine"], fracs["Spine->ToR"])
			}
		}
	}
}

func BenchmarkFig07_StaticQueueAssignment(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig07StaticQueueAssignment(scale)
		if i == 0 {
			b.Log("\n" + experiments.FormatSeries("Fig7a BFC vs BFC-VFID vs SFQ+InfBuffer", res.Series))
			for _, label := range sortedKeys(res.CollisionFraction) {
				b.Logf("Fig7b %-10s collision fraction = %.4f", label, res.CollisionFraction[label])
			}
			b.ReportMetric(res.CollisionFraction["BFC"], "BFC-collisions")
			b.ReportMetric(res.CollisionFraction["BFC-VFID"], "BFC-VFID-collisions")
		}
	}
}

func BenchmarkFig08_IncastFanIn(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig08IncastFanIn(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig8 %-10s fanin=%-4d utilization=%.2f p99buffer=%v",
					r.Scheme, r.FanIn, r.Utilization, r.BufferP99)
			}
			for _, r := range rows {
				if r.Scheme == "BFC" {
					b.ReportMetric(r.Utilization, fmt.Sprintf("BFC-util@%d", r.FanIn))
				}
			}
		}
	}
}

func BenchmarkFig09_CrossDC(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig09CrossDC(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig9 %-10s intra-p99=%.2f inter-p99=%.2f", r.Scheme, r.IntraP99, r.InterP99)
				b.ReportMetric(r.InterP99, r.Scheme+"-inter-p99")
			}
		}
	}
}

func BenchmarkFig10_BufferOptimization(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10BufferOptimization(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig10 %-14s flows=%-4d queueP99=%v (2-hop BDP=%v)",
					r.Scheme, r.ConcurrentFlows, r.QueueP99, r.TwoHopBDP)
			}
		}
	}
}

func BenchmarkFig11_HighPriorityQueue(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig11HighPriorityQueue(scale)
		if i == 0 {
			b.Log("\n" + experiments.FormatSeries("Fig11b high-priority-queue ablation", res.Series))
			for _, label := range sortedKeys(res.OccupiedQueuesP99) {
				b.Logf("Fig11a %-18s p99 occupied queues = %.1f", label, res.OccupiedQueuesP99[label])
			}
		}
	}
}

func BenchmarkFig12_NumPhysicalQueues(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12NumPhysicalQueues(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig12 queues=%-4d collisions=%.4f p99slowdown=%.2f",
					r.Parameter, r.CollisionFraction, r.Series.Overall)
			}
		}
	}
}

func BenchmarkFig13_NumVFIDs(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13NumVFIDs(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig13 vfids=%-6d collisions=%.5f overflows=%.5f p99slowdown=%.2f",
					r.Parameter, r.CollisionFraction, r.OverflowFraction, r.Series.Overall)
			}
		}
	}
}

func BenchmarkFig14_BloomFilterSize(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig14BloomFilterSize(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig14 bloom=%-4dB p99slowdown=%.2f", r.Parameter, r.Series.Overall)
			}
		}
	}
}

// BenchmarkFig16_ScaleSweep regenerates the Fig 16 scale tier (fat-tree
// host-count sweep with streaming statistics) like the other figure
// benchmarks. At default scale it sweeps up to 128 hosts; BFC_FULL=1 runs the
// paper-boundary 128 through 1024.
func BenchmarkFig16_ScaleSweep(b *testing.B) {
	scale := quickScale()
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig16ScaleSweep(scale)
		if i == 0 {
			for _, r := range rows {
				b.Logf("Fig16 %-14s hosts=%-5d p99slowdown=%-8.2f util=%.2f statsSamples=%d",
					r.Scheme, r.Hosts, r.P99, r.Utilization, r.StatsSamples)
			}
		}
	}
}

// BenchmarkFatTreeScalePoint is the scale tier's regression gate: one BFC run
// on a 64-host three-tier fat-tree with streaming statistics. ns/op is the
// wall-clock per run (the unit the harness shards), B/op and allocs/op track
// the hot path and the constant-memory stats mode, and events/run pins the
// simulated work so a throughput regression cannot hide behind doing less.
// Unlike the figure benchmarks above it is cheap enough for CI, which feeds
// it to the benchjson gate against BENCH_baseline.json.
func BenchmarkFatTreeScalePoint(b *testing.B) {
	cfg := topology.FatTreeForHosts(64, 100*units.Gbps, units.Microsecond)
	var totalEvents uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo := topology.NewFatTree(cfg)
		tr, err := workload.Generate(workload.Config{
			Hosts:    topo.Hosts(),
			CDF:      workload.Google(),
			Load:     0.6,
			HostRate: topo.HostRate(topo.Hosts()[0]),
			Duration: 150 * units.Microsecond,
			Seed:     61,
		})
		if err != nil {
			b.Fatal(err)
		}
		opts := sim.DefaultOptions(sim.SchemeBFC, topo)
		opts.Duration = 150 * units.Microsecond
		opts.Drain = 800 * units.Microsecond
		opts.StreamingStats = true
		res, err := sim.Run(opts, tr.Flows)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.ReportMetric(float64(totalEvents)/float64(b.N), "events/run")
}

// shardedBench holds the one-time setup for BenchmarkShardedThroughput1024:
// the 1024-host fabric, its workload, and the serial (-shards 1) reference run
// the speedup is measured against. Cached across the benchmark's invocations
// so the expensive serial reference executes once per process. Both engines
// are warmed by one untimed run first: the benchmark often runs at b.N = 1,
// and the first run of either engine in a process (heap growth, page faults)
// is markedly slower than every later one, which measures the process, not
// the engine.
var shardedBench struct {
	once         sync.Once
	flows        []*packet.Flow
	opts         sim.Options
	serialNs     float64
	serialDigest string
	err          error
}

func shardedBenchSetup() {
	topo := topology.NewFatTree(topology.FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond))
	tr, err := workload.Generate(workload.Config{
		Hosts:    topo.Hosts(),
		CDF:      workload.Google(),
		Load:     0.5,
		HostRate: topo.HostRate(topo.Hosts()[0]),
		Duration: 20 * units.Microsecond,
		Seed:     71,
	})
	if err != nil {
		shardedBench.err = err
		return
	}
	shardedBench.flows = tr.Flows
	opts := sim.DefaultOptions(sim.SchemeBFC, topo)
	opts.Duration = 20 * units.Microsecond
	opts.Drain = 100 * units.Microsecond
	opts.StreamingStats = true
	shardedBench.opts = opts

	serialOpts, shardedOpts := opts, opts
	serialOpts.Shards, shardedOpts.Shards = 1, -1
	var res *sim.Result
	for _, run := range []struct {
		opts  sim.Options
		timed bool
	}{{serialOpts, false}, {shardedOpts, false}, {serialOpts, true}} {
		flows := cloneFlowList(tr.Flows)
		runtime.GC()
		start := time.Now()
		if res, err = sim.Run(run.opts, flows); err != nil {
			shardedBench.err = err
			return
		}
		if run.timed {
			shardedBench.serialNs = float64(time.Since(start).Nanoseconds())
		}
	}
	shardedBench.serialDigest, shardedBench.err = sim.ResultDigest(res)
}

// cloneFlowList deep-copies flows so repeated runs never share completion
// state.
func cloneFlowList(flows []*packet.Flow) []*packet.Flow {
	out := make([]*packet.Flow, len(flows))
	for i, f := range flows {
		c := *f
		out[i] = &c
	}
	return out
}

// BenchmarkShardedThroughput1024 is the tentpole gate for sharded execution:
// one BFC run on a 1024-host (32-pod) fat-tree under the conservative-PDES
// engine at -shards auto, timed against the serial engine on the same flows.
// It enforces two claims at once — the sharded result digest is byte-identical
// to the serial one, and the wall-clock speedup meets the tier for the
// machine's core count (>=4x on 8+ cores, >=2x on 4+, >=1.5x on 2+; on a
// single core only the coordination overhead is bounded). ns/op is the
// sharded run's wall-clock, fed to the benchjson gate.
func BenchmarkShardedThroughput1024(b *testing.B) {
	shardedBench.once.Do(shardedBenchSetup)
	if shardedBench.err != nil {
		b.Fatal(shardedBench.err)
	}
	opts := shardedBench.opts
	opts.Shards = -1 // auto: min(pods, GOMAXPROCS)
	var lastDigest string
	var totalEvents uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		flows := cloneFlowList(shardedBench.flows)
		runtime.GC()
		b.StartTimer()
		res, err := sim.Run(opts, flows)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		lastDigest, err = sim.ResultDigest(res)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
		b.StartTimer()
	}
	b.StopTimer()
	if lastDigest != shardedBench.serialDigest {
		b.Fatalf("sharded digest %s != serial digest %s (determinism broken)", lastDigest, shardedBench.serialDigest)
	}
	b.ReportMetric(float64(totalEvents)/float64(b.N), "events/run")

	shardedNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	speedup := shardedBench.serialNs / shardedNs
	b.ReportMetric(speedup, "speedup")
	cores := runtime.GOMAXPROCS(0)
	var min float64
	switch {
	case cores >= 8:
		min = 4.0
	case cores >= 4:
		min = 2.0
	case cores >= 2:
		min = 1.5
	default:
		min = 0.5 // one core: sharding cannot win; bound the overhead instead
	}
	if speedup < min {
		b.Errorf("sharded speedup %.2fx on %d cores, need >= %.1fx", speedup, cores, min)
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (events per
// second) on a standard BFC run, independent of any figure — useful for
// tracking performance of the engine itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	scale := experiments.Tiny()
	var totalEvents uint64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig05(scale, experiments.Fig05aGoogleIncast, []sim.Scheme{sim.SchemeBFC})
		totalEvents += res.Raw["BFC"].Events
	}
	b.ReportMetric(float64(totalEvents)/float64(b.N), "events/run")
	_ = units.Second
}

// sortedKeys returns a map's keys in sorted order, so benchmark logs print
// rows in a stable order across runs.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
