// Command bfcsim runs a single simulation: pick a scheme, a topology, a
// workload and a load level, and it prints the flow-completion-time slowdown
// table plus the aggregate statistics the paper reports.
//
// Example:
//
//	bfcsim -scheme bfc -topology t2 -workload google -load 0.6 -incast -duration 2ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"bfc"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
	"bfc/internal/units"
)

func main() {
	log.SetFlags(0)
	var (
		schemeName = flag.String("scheme", "bfc", "scheme: bfc, bfc-vfid, dcqcn, dcqcn+win, dcqcn+win+sfq, hpcc, ideal-fq")
		topoName   = flag.String("topology", "t2", "topology: t1, t2, star:<hosts>, fattree:<hosts>")
		wlName     = flag.String("workload", "google", "workload: google, fb_hadoop, websearch")
		load       = flag.Float64("load", 0.6, "average background load (fraction of host capacity)")
		incast     = flag.Bool("incast", false, "add 5% 100-to-1 incast traffic")
		duration   = flag.Duration("duration", 2*time.Millisecond, "workload horizon")
		drain      = flag.Duration("drain", 2*time.Millisecond, "extra drain time after the horizon")
		seed       = flag.Int64("seed", 1, "random seed")
		queues     = flag.Int("queues", 32, "physical queues per egress port")
		buffer     = flag.Int("buffer-mb", 12, "switch shared buffer (MB)")
		shards     = flag.Int("shards", 0, "shards for the conservative-PDES engine (0/1 = serial, >=2 = explicit, -1 = auto: min(pods, GOMAXPROCS)); output is byte-identical across shard counts")
		digest     = flag.Bool("digest", false, "print the SHA-256 result digest (telemetry excluded); identical digests across -shards values certify determinism")
		execStats  = flag.Bool("exec-stats", false, "collect and print the wall-clock execution profile (per-shard events, heap-hw = most event-queue records pending at once across its tiers, barrier wait, window utilization, boundary traffic); observational — digests are unchanged")
		execTrace  = flag.String("exec-trace", "", "write a wall-clock Chrome trace of the execution machinery to this file (implies -exec-stats); load in Perfetto")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (topology build, workload generation and run) to this file; read with go tool pprof")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the run to this file; pprof -sample_index=alloc_space shows what the run allocated")
	)
	logOpts := telemetry.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	telemetry.SetupLogging(logOpts)
	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	scheme, err := sim.SchemeByName(*schemeName)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := parseTopology(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	cdf, err := bfc.WorkloadByName(*wlName)
	if err != nil {
		log.Fatal(err)
	}

	simDuration := bfc.Time(duration.Nanoseconds()) * bfc.Nanosecond
	wl := bfc.WorkloadConfig{
		Hosts:    topo.Hosts(),
		CDF:      cdf,
		Load:     *load,
		HostRate: 100 * bfc.Gbps,
		Duration: simDuration,
		Seed:     *seed,
	}
	if *incast {
		wl.Incast = bfc.IncastConfig{
			Enabled: true, FanIn: 100, AggregateSize: 20 * bfc.MB, LoadFraction: 0.05,
		}
	}
	trace, err := bfc.GenerateWorkload(wl)
	if err != nil {
		log.Fatal(err)
	}

	opts := bfc.DefaultOptions(scheme, topo)
	opts.Duration = simDuration
	opts.Drain = bfc.Time(drain.Nanoseconds()) * bfc.Nanosecond
	opts.NumQueues = *queues
	opts.SwitchBuffer = bfc.Bytes(*buffer) * bfc.MB
	opts.Seed = *seed
	opts.Shards = *shards
	opts.ExecStats = *execStats || *execTrace != ""

	start := time.Now()
	res, err := bfc.Run(opts, trace.Flows)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheme=%v topology=%s workload=%s load=%.0f%% incast=%v\n",
		scheme, *topoName, cdf.Name, *load*100, *incast)
	fmt.Printf("flows: %d offered, %d completed; simulated %v in %v (%d events, %s)\n",
		res.FlowsTotal, res.FlowsCompleted, res.Elapsed, elapsed.Round(time.Millisecond), res.Events,
		res.Sharding.Describe())
	fmt.Printf("utilization=%.2f drops=%d ecn-marks=%d pfc-pauses=%d bfc-frames=%d\n",
		res.Utilization, res.Drops, res.ECNMarks, res.PFCPauses, res.BFCFrames)
	if *digest {
		d, err := bfc.ResultDigest(res)
		if err != nil {
			log.Fatal(err)
		}
		// The execution mode rides with the digest so a sharded request that
		// fell back to serial is visible next to the bytes it certifies.
		fmt.Printf("digest=%s execution=%s\n", d, res.Sharding.Describe())
	}
	if ex := res.Exec; ex != nil {
		fmt.Printf("exec: shards=%d windows=%d barriers=%d utilization=%.1f%% busy=%v barrier-wait=%v\n",
			len(ex.Shards), ex.Windows, ex.Barriers, 100*ex.Utilization(),
			time.Duration(ex.BusyNS()).Round(time.Microsecond),
			time.Duration(ex.BarrierWaitNS()).Round(time.Microsecond))
		for i := range ex.Shards {
			ss := &ex.Shards[i]
			// heap-hw is the most index records ever pending at once across
			// the event queue's three tiers — what the single heap's depth
			// was before the calendar front, and the same number.
			fmt.Printf("  shard %d: events=%d heap-hw=%d pool=%d/%d util=%.1f%% boundary: pushes=%d max-drain=%d\n",
				ss.Shard, ss.Events, ss.HeapHighWater, ss.PoolAllocated, ss.PoolRecycled,
				100*ss.Utilization(), ss.Boundary.Pushes, ss.Boundary.MaxDrain)
		}
		if *execTrace != "" {
			tf, err := os.Create(*execTrace)
			if err != nil {
				log.Fatal(err)
			}
			name := fmt.Sprintf("bfcsim %v %s", scheme, *topoName)
			if err := execstats.WriteChromeTrace(tf, name, ex); err != nil {
				log.Fatal(err)
			}
			if err := tf.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("exec trace written to %s (%d window spans)\n", *execTrace, len(ex.Spans))
		}
	}
	fmt.Printf("buffer occupancy: p50=%v p99=%v max=%v\n",
		units.Bytes(res.BufferOccupancy.Percentile(50)),
		units.Bytes(res.BufferOccupancy.Percentile(99)),
		res.MaxBufferOccupancy)
	if res.Assignments > 0 {
		fmt.Printf("bfc: pauses=%d resumes=%d collisions=%.4f max-active-flows=%d\n",
			res.Pauses, res.Resumes, res.CollisionFraction(), res.MaxActiveFlows)
	}
	fmt.Println("\nFCT slowdown by flow size (non-incast traffic):")
	fmt.Printf("%-12s %8s %8s %8s %8s %8s\n", "bucket", "count", "mean", "p50", "p95", "p99")
	for _, row := range res.FCT.Rows() {
		fmt.Printf("%-12s %8d %8.2f %8.2f %8.2f %8.2f\n",
			row.Bucket.Label, row.Count, row.Mean, row.P50, row.P95, row.P99)
	}
}

func parseTopology(name string) (*bfc.Topology, error) {
	switch {
	case strings.EqualFold(name, "t1"):
		return bfc.NewT1(), nil
	case strings.EqualFold(name, "t2"):
		return bfc.NewT2(), nil
	case strings.HasPrefix(strings.ToLower(name), "star:"):
		var hosts int
		if _, err := fmt.Sscanf(name[5:], "%d", &hosts); err != nil || hosts < 2 {
			return nil, fmt.Errorf("invalid star topology %q (want star:<hosts>)", name)
		}
		return bfc.NewSingleSwitch(hosts, 100*bfc.Gbps, bfc.Microsecond), nil
	case strings.HasPrefix(strings.ToLower(name), "fattree:"):
		var hosts int
		if _, err := fmt.Sscanf(name[8:], "%d", &hosts); err != nil || hosts < 8 {
			return nil, fmt.Errorf("invalid fat-tree topology %q (want fattree:<hosts>, hosts >= 8)", name)
		}
		return bfc.NewFatTree(hosts, 100*bfc.Gbps, bfc.Microsecond), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}
