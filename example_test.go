package bfc_test

import (
	"fmt"
	"log"

	"bfc"
)

// smallClos is the examples' fabric: 2 racks of 8 hosts, 2 spines, 100 Gbps
// links.
func smallClos() *bfc.Topology {
	return bfc.NewClos(bfc.ClosConfig{
		NumToR:      2,
		NumSpine:    2,
		HostsPerToR: 8,
		LinkRate:    100 * bfc.Gbps,
		LinkDelay:   bfc.Microsecond,
	})
}

// Run BFC on a small leaf-spine fabric under the Google workload and print
// the tail-latency table: the minimal end-to-end use of the package.
func Example_quickstart() {
	topo := smallClos()

	// Synthesize 60% load from the Google all-apps flow-size distribution.
	trace, err := bfc.GenerateWorkload(bfc.WorkloadConfig{
		Hosts:    topo.Hosts(),
		CDF:      bfc.GoogleWorkload(),
		Load:     0.6,
		HostRate: 100 * bfc.Gbps,
		Duration: 500 * bfc.Microsecond,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d flows (offered load %.2f)\n", len(trace.Flows), trace.OfferedLoad)

	// Run the BFC scheme with the paper's switch configuration.
	opts := bfc.DefaultOptions(bfc.SchemeBFC, topo)
	opts.Duration = 500 * bfc.Microsecond
	res, err := bfc.Run(opts, trace.Flows)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("completed %d/%d flows, utilization %.2f, %d BFC pauses, %d pause frames\n",
		res.FlowsCompleted, res.FlowsTotal, res.Utilization, res.Pauses, res.BFCFrames)
	fmt.Printf("%-12s %8s %8s %8s\n", "bucket", "count", "p50", "p99")
	for _, row := range res.FCT.Rows() {
		fmt.Printf("%-12s %8d %8.2f %8.2f\n", row.Bucket.Label, row.Count, row.P50, row.P99)
	}
	// Output:
	// generated 3200 flows (offered load 0.51)
	// completed 3200/3200 flows, utilization 0.10, 1108 BFC pauses, 4084 pause frames
	// bucket          count      p50      p99
	// <1KB             2656     1.02     1.12
	// 1-3KB             230     1.04     1.29
	// 3-10KB            157     1.16     1.95
	// 10-30KB            56     1.41     2.72
	// 30-100KB           42     1.76     4.61
	// 100-300KB          35     1.91     5.04
	// 300KB-1MB          18     2.39     4.70
	// >1MB                6     2.32     3.52
}

// The workload the paper's introduction motivates: latency-sensitive
// background RPCs disrupted by a many-to-one incast. The same trace runs
// under DCQCN, DCQCN+Win, HPCC and BFC. BFC keeps the tail latency of short,
// unrelated flows close to 1x during the incast, because only the incast
// flows are paused hop by hop; under end-to-end control they queue behind it.
func Example_incast() {
	topo := smallClos()
	duration := 400 * bfc.Microsecond

	// 50% background load of small RPCs plus a 15-to-1 incast of 4 MB every
	// 200 us: the cross-traffic pattern of §4.2.
	makeTrace := func() []*bfc.Flow {
		trace, err := bfc.GenerateWorkload(bfc.WorkloadConfig{
			Hosts:    topo.Hosts(),
			CDF:      bfc.GoogleWorkload(),
			Load:     0.5,
			HostRate: 100 * bfc.Gbps,
			Duration: duration,
			Seed:     7,
			Incast: bfc.IncastConfig{
				Enabled:       true,
				FanIn:         15,
				AggregateSize: 4 * bfc.MB,
				Interval:      200 * bfc.Microsecond,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return trace.Flows
	}

	fmt.Printf("%-10s %9s %12s %5s %4s %5s\n", "scheme", "p99 <1KB", "p99 overall", "util", "PFC", "drops")
	for _, scheme := range []bfc.Scheme{bfc.SchemeDCQCN, bfc.SchemeDCQCNWin, bfc.SchemeHPCC, bfc.SchemeBFC} {
		opts := bfc.DefaultOptions(scheme, topo)
		opts.Duration = duration
		res, err := bfc.Run(opts, makeTrace())
		if err != nil {
			log.Fatal(err)
		}
		short := res.FCT.TailSlowdownBySize()["<1KB"]
		fmt.Printf("%-10v %9.2f %12.2f %5.2f %4d %5d\n",
			scheme, short, res.FCT.OverallPercentile(99), res.Utilization, res.PFCPauses, res.Drops)
	}
	// Output:
	// scheme      p99 <1KB  p99 overall  util  PFC drops
	// DCQCN         115.83       107.95  0.08    4     0
	// DCQCN+Win      42.54        42.13  0.09    0     0
	// HPCC            5.47         5.48  0.09    0     0
	// BFC             1.12         3.36  0.09    0     0
}

// The §4.2 metro-area scenario at example scale: two small data centers
// joined by a 100 Gbps link with 200 us one-way delay, 20% of flows crossing
// it. BFC reacts at the one-hop RTT, so inter-DC flows buffer at the gateway
// (where the buffering keeps the long link busy) and intra-DC tail latency is
// unaffected; DCQCN+Win waits for end-to-end feedback over the 400 us RTT.
func Example_crossDC() {
	x := bfc.NewCrossDC(bfc.ClosConfig{
		NumToR:      2,
		NumSpine:    2,
		HostsPerToR: 4,
		LinkRate:    10 * bfc.Gbps,
		LinkDelay:   bfc.Microsecond,
	})
	inter := &bfc.InterDCConfig{HostsDC1: x.HostsDC1, HostsDC2: x.HostsDC2}
	duration := 4 * bfc.Millisecond

	fmt.Printf("%-10s %13s %13s\n", "scheme", "intra-DC p99", "inter-DC p99")
	for _, scheme := range []bfc.Scheme{bfc.SchemeDCQCNWin, bfc.SchemeBFC} {
		trace, err := bfc.GenerateWorkload(bfc.WorkloadConfig{
			Hosts:    x.Hosts(),
			CDF:      bfc.FBHadoopWorkload(),
			Load:     0.6,
			HostRate: 10 * bfc.Gbps,
			Duration: duration,
			Seed:     3,
			InterDC:  inter,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts := bfc.DefaultOptions(scheme, x.Topology)
		opts.Duration = duration
		opts.Drain = 5 * bfc.Millisecond
		opts.SwitchBuffer = 9 * bfc.MB
		if _, err := bfc.Run(opts, trace.Flows); err != nil {
			log.Fatal(err)
		}
		var intra, interDC bfc.Distribution
		for _, f := range trace.Flows {
			if f.FinishTime == 0 {
				continue
			}
			slow := max(1, float64(f.FCT())/float64(bfc.IdealFCT(x.Topology, f)))
			if inter.IsInterDC(f) {
				interDC.Add(slow)
			} else {
				intra.Add(slow)
			}
		}
		fmt.Printf("%-10v %13.2f %13.2f\n", scheme, intra.Percentile(99), interDC.Percentile(99))
	}
	// Output:
	// scheme      intra-DC p99  inter-DC p99
	// DCQCN+Win          21.45          3.27
	// BFC                 5.51          2.54
}

// A small-scale rendition of the paper's headline figure, Fig 5: all six
// schemes on one workload. As in the paper, BFC tracks Ideal-FQ, and the
// DCQCN variants and HPCC are several times worse at the tail, most of all
// for sub-10KB flows.
func Example_schemes() {
	topo := smallClos()
	duration := 400 * bfc.Microsecond

	buckets := []string{"<1KB", "3-10KB", "30-100KB", ">1MB"}
	fmt.Printf("%-13s", "scheme")
	for _, b := range buckets {
		fmt.Printf("%9s", b)
	}
	fmt.Printf("%12s\n", "overall p99")
	for _, scheme := range bfc.AllSchemes() {
		trace, err := bfc.GenerateWorkload(bfc.WorkloadConfig{
			Hosts:    topo.Hosts(),
			CDF:      bfc.GoogleWorkload(),
			Load:     0.6,
			HostRate: 100 * bfc.Gbps,
			Duration: duration,
			Seed:     5,
			Incast: bfc.IncastConfig{
				Enabled:       true,
				FanIn:         15,
				AggregateSize: 2 * bfc.MB,
				LoadFraction:  0.05,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		opts := bfc.DefaultOptions(scheme, topo)
		opts.Duration = duration
		res, err := bfc.Run(opts, trace.Flows)
		if err != nil {
			log.Fatal(err)
		}
		bySize := res.FCT.TailSlowdownBySize()
		fmt.Printf("%-13v", scheme)
		for _, b := range buckets {
			fmt.Printf("%9.2f", bySize[b])
		}
		fmt.Printf("%12.2f\n", res.FCT.OverallPercentile(99))
	}
	// Output:
	// scheme            <1KB   3-10KB 30-100KB     >1MB overall p99
	// BFC               1.12     3.00    11.26     1.90        2.58
	// Ideal-FQ          1.41     3.50    11.10     1.93        3.06
	// DCQCN            26.57    18.45    11.55     5.52       23.88
	// DCQCN+Win        23.94    20.16    12.51     2.41       23.34
	// HPCC              6.93     4.26     5.85     4.53        6.93
	// DCQCN+Win+SFQ    10.39     2.81    12.70     2.87        9.64
}
