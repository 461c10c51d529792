// bench_test.go holds the three whole-run benchmarks: a fat-tree scale point,
// the engine at -shards auto against its one-shard case on 1024 hosts (which
// fails itself on digest divergence or a speedup under its floor), and raw
// simulator throughput. They are developer tools — CI runs them so they keep compiling
// and passing; speed is claimed and gated by bench/, and events/run is pinned
// by the golden digests. The paper's figures are regenerated by
// cmd/bfcsim -fig from the figure table in internal/experiments, not from
// here.
package bfc_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bfc/internal/experiments"
	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// BenchmarkFatTreeScalePoint is the scale tier's whole-run figure: one BFC run
// on a 64-host three-tier fat-tree with streaming statistics. ns/op is the
// wall-clock per run (the unit the harness shards), B/op and allocs/op track
// the hot path and the constant-memory stats mode, and events/run shows the
// simulated work so a faster run that did less is visible.
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
// the 1024-host fabric, its workload, and the one-shard (-shards 1) reference
// run the speedup is measured against. Cached across the benchmark's
// invocations so the expensive reference executes once per process. Both
// shard counts are warmed by one untimed run first: the benchmark often runs
// at b.N = 1, and the first run of either in a process (heap growth, page
// faults) is markedly slower than every later one, which measures the
// process, not the engine.
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
// engine at -shards auto, timed against one shard on the same flows. It
// enforces two claims at once — the sharded result digest is byte-identical
// to the one-shard one, and the wall-clock speedup meets the tier for the
// machine's core count (>=4x on 8+ cores, >=2x on 4+, >=1.5x on 2+; on a
// single core only the coordination overhead is bounded). ns/op is the
// sharded run's wall-clock.
func BenchmarkShardedThroughput1024(b *testing.B) {
	shardedBench.once.Do(shardedBenchSetup)
	if shardedBench.err != nil {
		b.Fatal(shardedBench.err)
	}
	opts := shardedBench.opts
	opts.Shards = -1 // auto: min(hosts, GOMAXPROCS)
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
		jobs := experiments.Fig05Jobs(scale, experiments.Fig05aGoogleIncast, []sim.Scheme{sim.SchemeBFC})
		recs, err := (&harness.Runner{}).Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += recs[0].Result.Events
	}
	b.ReportMetric(float64(totalEvents)/float64(b.N), "events/run")
}
