package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// simWorkload is a single-simulation workload: one repetition builds the
// topology, generates the flows, runs the simulator and digests the result —
// what one bfcsim invocation pays.
type simWorkload struct {
	seed     int64
	topo     func() *topology.Topology
	trace    workload.Config // Hosts and HostRate are filled per repetition
	scheme   sim.Scheme
	drain    units.Time
	shards   int
	stream   bool
	profiled bool // Options.ExecStats, on traced repetitions

	// serialSeconds is the reference run's sim.Run wall time, the numerator
	// of sim.shard_speedup.
	serialSeconds float64
}

// The flow sizes and arrival times of a workload come from a fixed trace
// seed, and -seed relabels the endpoints: hosts are permuted among the hosts
// of their own first-hop switch, source ports are shifted and the simulator's
// own seed changes. That moves everything an optimisation could fit itself to
// — ECMP paths, VFID and physical-queue collisions, bloom-filter bits, ECN
// marking draws — while the offered bytes, the flow count and each flow's hop
// count stay the same, so host cost compares across seeds. (With the trace
// itself drawn from -seed, the heavy-tailed sizes move the event count by
// +-13 % between seeds, and the driver counts spread across seeds as noise.)
const (
	closTraceSeed    = 7
	fatTreeTraceSeed = 71
)

func closIncast(scheme sim.Scheme, seed int64) *simWorkload {
	return &simWorkload{
		seed: seed,
		topo: topology.NewT2,
		trace: workload.Config{
			CDF: workload.Google(), Load: 0.6, Duration: 300 * units.Microsecond, Seed: closTraceSeed,
			Incast: workload.IncastConfig{Enabled: true, FanIn: 30, AggregateSize: 4 * units.MB, LoadFraction: 0.05},
		},
		scheme: scheme,
		drain:  2 * units.Millisecond,
	}
}

func fatTree1024(seed int64) *simWorkload {
	return &simWorkload{
		seed: seed,
		topo: func() *topology.Topology {
			return topology.NewFatTree(topology.FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond))
		},
		trace: workload.Config{
			CDF: workload.Google(), Load: 0.5, Duration: 20 * units.Microsecond, Seed: fatTreeTraceSeed,
		},
		scheme: sim.SchemeBFC,
		drain:  100 * units.Microsecond,
		shards: 2,
		stream: true,
	}
}

// relabel applies the seed to the generated flows; see the comment on the
// trace seeds.
func relabel(topo *topology.Topology, flows []*packet.Flow, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	image := make(map[packet.NodeID]packet.NodeID, len(topo.Hosts()))
	var bySwitch [][]packet.NodeID
	group := map[packet.NodeID]int{}
	for _, h := range topo.Hosts() {
		sw := topo.Node(h).Ports[0].Peer
		g, ok := group[sw]
		if !ok {
			g = len(bySwitch)
			group[sw] = g
			bySwitch = append(bySwitch, nil)
		}
		bySwitch[g] = append(bySwitch[g], h)
	}
	for _, hosts := range bySwitch {
		for i, j := range rng.Perm(len(hosts)) {
			image[hosts[i]] = hosts[j]
		}
	}
	portShift := uint16(rng.Intn(1 << 14))
	for _, f := range flows {
		f.Src, f.Dst = image[f.Src], image[f.Dst]
		f.SrcPort += portShift
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// inputs builds the topology and the seeded flows.
func (w *simWorkload) inputs(tr *tracer, layer map[string]float64) (*topology.Topology, []*packet.Flow, error) {
	var topo *topology.Topology
	var before uint64
	if tr != nil {
		before = mallocs()
	}
	tr.do("topology.build", func() { topo = w.topo() })
	if tr != nil {
		layer["topology.build_allocs"] = float64(mallocs() - before)
	}
	cfg := w.trace
	cfg.Hosts = topo.Hosts()
	cfg.HostRate = topo.HostRate(topo.Hosts()[0])
	var trace *workload.Trace
	var err error
	tr.do("workload.generate", func() { trace, err = workload.Generate(cfg) })
	if err != nil {
		return nil, nil, err
	}
	relabel(topo, trace.Flows, w.seed)
	return topo, trace.Flows, nil
}

func (w *simWorkload) options(topo *topology.Topology) sim.Options {
	opts := sim.DefaultOptions(w.scheme, topo)
	opts.Duration = w.trace.Duration
	opts.Drain = w.drain
	opts.Seed = w.seed
	opts.StreamingStats = w.stream
	opts.Shards = w.shards
	opts.ExecStats = w.profiled
	return opts
}

func (w *simWorkload) reference() (string, error) {
	if w.shards <= 1 {
		return "", nil
	}
	topo, flows, err := w.inputs(nil, nil)
	if err != nil {
		return "", err
	}
	opts := w.options(topo)
	opts.Shards = 1
	opts.ExecStats = false
	t0 := time.Now()
	res, err := sim.Run(opts, flows)
	if err != nil {
		return "", err
	}
	w.serialSeconds = time.Since(t0).Seconds()
	return sim.ResultDigest(res)
}

func (w *simWorkload) repetition(tr *tracer) (*outcome, error) {
	out := &outcome{}
	if tr != nil {
		out.layer = map[string]float64{}
	}
	topo, flows, err := w.inputs(tr, out.layer)
	if err != nil {
		return nil, err
	}
	opts := w.options(topo)
	var run time.Duration
	tr.do("sim.run", func() {
		t0 := time.Now()
		out.res, err = sim.Run(opts, flows)
		run = time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	if w.shards > 1 && out.res.Sharding.Used != w.shards {
		return nil, fmt.Errorf("asked for %d shards, ran on %d (%s)", w.shards, out.res.Sharding.Used, out.res.Sharding.Fallback)
	}
	tr.do("stats.digest", func() { out.digest, err = sim.ResultDigest(out.res) })
	if err != nil {
		return nil, err
	}
	out.events = out.res.Events
	if tr != nil {
		out.layer["workload.flows"] = float64(len(flows))
		if w.serialSeconds > 0 {
			out.layer["sim.shard_speedup"] = w.serialSeconds / run.Seconds()
		}
	}
	return out, nil
}

// simLayerMetrics reads the per-layer counters a finished run exposes. The
// counters of simulated behaviour repeat exactly at a fixed seed and must not
// move under a change that only makes the host faster.
func simLayerMetrics(res *sim.Result, m map[string]float64) {
	m["sim.p99_slowdown"] = res.FCT.OverallPercentile(99)
	m["sim.p99_buffer_mb"] = res.BufferOccupancy.Percentile(99) / 1e6
	if res.FlowsTotal > 0 {
		m["sim.completed_frac"] = float64(res.FlowsCompleted) / float64(res.FlowsTotal)
	}
	m["stats.fct_samples"] = float64(res.FCT.Count())
	m["switchsim.data_packets"] = float64(res.DataPackets)
	m["switchsim.pauses"] = float64(res.Pauses)
	m["switchsim.resumes"] = float64(res.Resumes)
	m["switchsim.bfc_frames"] = float64(res.BFCFrames)
	m["switchsim.pfc_pauses"] = float64(res.PFCPauses)
	m["switchsim.ecn_marks"] = float64(res.ECNMarks)
	m["switchsim.drops"] = float64(res.Drops)
	m["core.collision_fraction"] = res.CollisionFraction()
	m["flowtable.overflow_fraction"] = res.OverflowFraction()
	if res.Scenario != nil {
		m["scenario.reroutes"] = float64(res.Scenario.Reroutes)
	}

	ex := res.Exec
	if ex == nil {
		return
	}
	var heap int
	var allocated, recycled, pushes, spills uint64
	for _, sh := range ex.Shards {
		if sh.HeapHighWater > heap {
			heap = sh.HeapHighWater
		}
		allocated += sh.PoolAllocated
		recycled += sh.PoolRecycled
		pushes += sh.Boundary.Pushes
		spills += sh.Boundary.Spills
	}
	m["eventsim.heap_high_water"] = float64(heap)
	m["packet.pool_allocated"] = float64(allocated)
	m["packet.pool_recycled"] = float64(recycled)
	if allocated+recycled > 0 {
		m["packet.pool_reuse_ratio"] = float64(recycled) / float64(allocated+recycled)
	}
	m["netsim.boundary_pushes"] = float64(pushes)
	m["netsim.boundary_spills"] = float64(spills)
	if pushes > 0 {
		m["netsim.boundary_spill_ratio"] = float64(spills) / float64(pushes)
	}
	m["sim.busy_s"] = float64(ex.BusyNS()) / 1e9
	m["sim.barrier_wait_s"] = float64(ex.BarrierWaitNS()) / 1e9
	m["sim.drain_s"] = float64(ex.DrainNS) / 1e9
	m["sim.windows"] = float64(ex.Windows)
	m["sim.utilization"] = ex.Utilization()
	if ex.Windows > 0 && ex.TruncatedSpans == 0 {
		var inWindows int64
		for _, sp := range ex.Spans {
			inWindows += sp.WallNS
		}
		m["sim.outside_windows_s"] = float64(ex.WallNS-inWindows) / 1e9
	}
}
