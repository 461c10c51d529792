package sim

import (
	"fmt"

	"bfc/internal/bloom"
	"bfc/internal/cc"
	"bfc/internal/cc/dcqcn"
	"bfc/internal/cc/hpcc"
	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/nic"
	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/stats"
	"bfc/internal/switchsim"
	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// Result carries everything the paper's figures report about a run.
type Result struct {
	Scheme Scheme

	// FCT aggregates slowdowns of completed background (non-incast,
	// non-long-lived) flows.
	FCT *stats.FCTCollector
	// FCTIncast aggregates incast-flow slowdowns separately.
	FCTIncast *stats.FCTCollector

	// FlowsTotal / FlowsCompleted count background flows offered / finished.
	FlowsTotal     int
	FlowsCompleted int

	// BufferOccupancy holds per-switch shared-buffer samples (bytes).
	BufferOccupancy stats.Distribution
	// MaxBufferOccupancy is the worst per-switch occupancy observed.
	MaxBufferOccupancy units.Bytes
	// MaxPhysicalQueueBytes is the largest single physical-queue depth seen
	// (Fig 10).
	MaxPhysicalQueueBytes units.Bytes
	// OccupiedQueues samples the number of busy physical queues (Fig 11a).
	OccupiedQueues stats.Distribution

	// Utilization is delivered payload over aggregate host capacity.
	Utilization float64
	// ReceiverUtilization is delivered payload over the capacity of hosts
	// that actually received traffic (used for the Fig 8 long-lived-flow
	// experiment, where only a subset of hosts are receivers).
	ReceiverUtilization float64

	// PauseTimeFraction is the fraction of link-time PFC-paused per link
	// class ("ToR->Spine", "Spine->ToR", "Host->ToR", ...).
	PauseTimeFraction map[string]float64

	// Drops, ECNMarks and PFCPauses aggregate switch counters.
	Drops     uint64
	ECNMarks  uint64
	PFCPauses uint64
	BFCFrames uint64

	// Collisions aggregates BFC queue-assignment statistics across switches.
	Assignments          uint64
	CollidedAssignments  uint64
	VFIDCollisions       uint64
	TableOverflowPackets uint64
	DataPackets          uint64
	Pauses               uint64
	Resumes              uint64
	MaxActiveFlows       int

	// Events is the number of simulator events executed (performance metric).
	Events uint64
	// Elapsed is the simulated time covered by the run.
	Elapsed units.Time

	// Scenario carries the per-scenario metrics (event windows, reroute
	// counts, stranded-packet accounting) when the run injected a scenario;
	// nil otherwise.
	Scenario *scenario.Metrics `json:"Scenario,omitempty"`

	// Telemetry carries the bounded time-series bundle when
	// Options.SampleSeries was set; nil (and absent from the JSON) otherwise,
	// so untraced results stay byte-identical to pre-telemetry ones. Digest
	// comparisons across the on/off boundary use ResultDigest, which excludes
	// this field.
	Telemetry *telemetry.RunSeries `json:"Telemetry,omitempty"`

	// Sharding reports how the run was executed (shards requested and used,
	// and why a sharded request ran on one shard, if it did). Excluded from
	// the JSON so serialized results — and their digests — stay byte-identical
	// across shard counts, which is the engine's core contract.
	Sharding ShardInfo `json:"-"`

	// Exec carries the wall-clock execution profile when Options.ExecStats
	// was set; nil otherwise. Excluded from the JSON (and therefore from
	// ResultDigest and persisted artifacts, which deliberately carry no
	// wall-clock information) — it exists for live observability: service
	// metrics, the harness aggregate, and the wall-clock Chrome trace.
	Exec *execstats.RunStats `json:"-"`
}

// CollisionFraction returns the fraction of queue assignments that collided
// with an already-occupied queue (Fig 7b, 12a).
func (r *Result) CollisionFraction() float64 {
	if r.Assignments == 0 {
		return 0
	}
	return float64(r.CollidedAssignments) / float64(r.Assignments)
}

// VFIDCollisionFraction returns per-packet VFID aliasing frequency (Fig 13a).
func (r *Result) VFIDCollisionFraction() float64 {
	if r.DataPackets == 0 {
		return 0
	}
	return float64(r.VFIDCollisions) / float64(r.DataPackets)
}

// OverflowFraction returns the fraction of data packets handled through the
// overflow queue because the flow table was full (Fig 13a).
func (r *Result) OverflowFraction() float64 {
	if r.DataPackets == 0 {
		return 0
	}
	return float64(r.TableOverflowPackets) / float64(r.DataPackets)
}

// Run executes one simulation of the given flows under the options. Every run
// is the coordinator loop of runSharded over a shard plan; a run that does not
// partition — Shards 0 or 1, or a fabric that cannot split — is its one-shard
// case.
func Run(opts Options, flows []*packet.Flow) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	plan, fallback := shardPlanFor(&opts)
	res, err := runSharded(opts, plan, flows)
	if err != nil {
		return nil, err
	}
	res.Sharding = ShardInfo{Requested: opts.Shards, Used: plan.Shards, Fallback: fallback}
	return res, nil
}

type runner struct {
	opts  Options
	sched *eventsim.Scheduler
	topo  *topology.Topology
	pool  *packet.Pool

	// reg holds the run's devices; the shard runners of a partitioned run
	// share one and each build only the devices they own.
	reg *registry

	// plan and shardID restrict the runner to one shard of the run: it builds
	// and runs only the devices its shard is assigned. Sampling belongs to the
	// coordinator.
	plan    *topology.ShardPlan
	shardID int

	// result and scen are set only on the one shard of a one-shard run, whose
	// completions already come in key order: it records them straight into
	// the coordinator's Result and scenario Metrics (scen nil without a
	// scenario). The shards of a partitioned run leave result nil and buffer
	// completions in fctBuf, keyed, for the coordinator to merge.
	result *Result
	scen   *scenario.Metrics
	fctBuf []fctRec

	// flowsTotal counts the background flows this runner offered (base trace
	// at construction, injected scenario flows when their event fires).
	flowsTotal int

	// strandedPkts/strandedBytes and injectedFlows accumulate scenario
	// counters runner-locally; the coordinator sums them across shards after
	// the run — shard windows run in parallel, so shards must never write the
	// shared Metrics.
	strandedPkts  uint64
	strandedBytes units.Bytes
	injectedFlows int

	// rec is the flight recorder (nil when disabled).
	rec telemetry.Recorder
}

// owned reports whether this runner builds and runs the given node.
func (r *runner) owned(id packet.NodeID) bool {
	return r.plan.Assign[id] == r.shardID
}

// newResult returns an empty Result with the collectors the options ask for.
func newResult(opts *Options) *Result {
	res := &Result{
		Scheme:            opts.Scheme,
		FCT:               stats.NewFCTCollector(nil),
		FCTIncast:         stats.NewFCTCollector(nil),
		PauseTimeFraction: map[string]float64{},
	}
	if opts.StreamingStats {
		// Constant-memory mode: every distribution the run grows without
		// bound in exact mode becomes a fixed-capacity sketch.
		res.FCT = stats.NewStreamingFCTCollector(nil, opts.StatsSketchSize)
		res.FCTIncast = stats.NewStreamingFCTCollector(nil, opts.StatsSketchSize)
		res.BufferOccupancy = stats.NewStreamingDistribution(opts.StatsSketchSize)
		res.OccupiedQueues = stats.NewStreamingDistribution(opts.StatsSketchSize)
	}
	return res
}

func newRunner(opts Options, reg *registry) *runner {
	r := &runner{
		opts:  opts,
		sched: eventsim.New(),
		topo:  opts.Topo,
		pool:  packet.NewPool(),
		reg:   reg,
	}
	// Only a ring that exists: a nil *Ring in the interface field would be a
	// non-nil Recorder, and every emit site's nil check would pass.
	if opts.Recorder != nil {
		r.rec = opts.Recorder
	}
	return r
}

// hopRTT returns the one-hop round-trip time used by BFC: twice the
// propagation plus MTU serialization of the fastest fabric link.
func (r *runner) hopRTT() units.Time {
	var delay units.Time
	var rate units.Rate
	for _, n := range r.topo.Nodes() {
		for _, p := range n.Ports {
			if p.Delay > delay {
				delay = p.Delay
			}
			if rate == 0 || p.Rate < rate {
				rate = p.Rate
			}
		}
	}
	if rate == 0 {
		rate = 100 * units.Gbps
	}
	return 2 * (delay + units.SerializationTime(r.opts.MTU+packet.DataHeaderSize, rate))
}

// buildDevices constructs the switches and NICs this runner owns, with the
// fabric-wide parameters every device shares derived from the options alone —
// so each shard runner of a partitioned run derives the same ones.
func (r *runner) buildDevices() {
	baseRTT := r.topo.MaxBaseRTT(r.opts.MTU + packet.DataHeaderSize)
	hostRate := r.topo.HostRate(r.topo.Hosts()[0])
	r.buildSwitches(r.hopRTT())
	r.buildNICs(hostRate, baseRTT)
}

func (r *runner) bfcConfig(hopRTT units.Time) *core.Config {
	opts := r.opts
	cfg := core.DefaultConfig()
	cfg.NumVFIDs = opts.NumVFIDs
	cfg.QueuesPerPort = opts.NumQueues
	cfg.Bloom = bloom.Params{SizeBytes: opts.BloomBytes, Hashes: bloom.DefaultHashes}
	cfg.HRTT = hopRTT
	cfg.Tau = hopRTT / 2
	cfg.DynamicAssignment = opts.Scheme != SchemeBFCStatic
	cfg.UseHighPriorityQueue = opts.HighPriorityQueue
	cfg.ResumeAll = opts.ResumeAll
	cfg.Seed = opts.Seed
	return &cfg
}

func (r *runner) buildSwitches(hopRTT units.Time) {
	opts := r.opts
	for _, node := range r.topo.Nodes() {
		if node.Kind != topology.Switch || !r.owned(node.ID) {
			continue
		}
		cfg := switchsim.Config{
			Scheduler:        r.sched,
			Topo:             r.topo,
			Node:             node,
			MTU:              opts.MTU,
			NumQueues:        opts.NumQueues,
			BufferSize:       opts.SwitchBuffer,
			EnablePFC:        !opts.DisablePFC,
			PFCThresholdFrac: 0.11,
			Seed:             opts.Seed,
			Pool:             r.pool,
			Recorder:         r.rec,
		}
		switch opts.Scheme {
		case SchemeBFC, SchemeBFCStatic:
			cfg.BFC = r.bfcConfig(hopRTT)
		case SchemeDCQCN, SchemeDCQCNWin, SchemeDCQCNWinSFQ:
			cfg.EnableECN = true
			cfg.ECNKmin, cfg.ECNKmax, cfg.ECNPmax = 100*units.KB, 400*units.KB, 1.0
			if opts.Scheme == SchemeDCQCNWinSFQ {
				cfg.SFQ = true
			} else {
				cfg.NumQueues = 1
			}
		case SchemeHPCC:
			cfg.NumQueues = 1
			cfg.EnableINT = true
		case SchemeIdealFQ:
			cfg.SFQ = true
			cfg.NumQueues = opts.IdealFQQueues
			cfg.InfiniteBuffer = true
			cfg.EnablePFC = false
		}
		r.reg.switches[node.ID] = switchsim.New(cfg)
	}
}

func (r *runner) buildNICs(hostRate units.Rate, baseRTT units.Time) {
	opts := r.opts
	// The +Win and Ideal-FQ end-to-end window: one maximum-base-RTT
	// bandwidth-delay product.
	windowCap := units.BDP(hostRate, baseRTT)
	for _, node := range r.topo.Nodes() {
		if node.Kind != topology.Host || !r.owned(node.ID) {
			continue
		}
		cfg := nic.Config{
			Scheduler:      r.sched,
			Topo:           r.topo,
			Node:           node,
			MTU:            opts.MTU,
			RTO:            4 * units.Millisecond,
			OnFlowComplete: r.onFlowComplete,
			Pool:           r.pool,
			Recorder:       r.rec,
		}
		switch opts.Scheme {
		case SchemeBFC, SchemeBFCStatic:
			cfg.VFIDSpace = opts.NumVFIDs
		case SchemeDCQCN, SchemeDCQCNWin, SchemeDCQCNWinSFQ:
			p := dcqcn.DefaultParams(hostRate)
			if opts.Scheme != SchemeDCQCN {
				p.Window = windowCap
			}
			cfg.GenerateCNP = true
			cfg.CNPInterval = p.CNPInterval
			cfg.NewController = func(f *packet.Flow) cc.Controller {
				return dcqcn.New(p)
			}
		case SchemeHPCC:
			cfg.EchoINT = true
			cfg.NewController = func(f *packet.Flow) cc.Controller {
				return hpcc.New(hpcc.DefaultParams(hostRate, baseRTT))
			}
		case SchemeIdealFQ:
			cfg.NewController = func(f *packet.Flow) cc.Controller {
				return cc.FixedWindow{W: windowCap}
			}
		}
		r.reg.nics[node.ID] = nic.New(cfg)
	}
}

// wireLinks creates the outgoing unidirectional links of every node this
// runner owns and attaches them to the devices. Receiving devices come from
// the registry (which spans all shards, so every shard's devices must be built
// first). A link whose peer another shard owns is marked cross-shard: it
// delivers through out[that shard], this shard's row of the run's boundary
// queues. A one-shard run owns every node and has none.
func (r *runner) wireLinks(out []netsim.Boundary) {
	for _, node := range r.topo.Nodes() {
		if !r.owned(node.ID) {
			continue
		}
		dev := r.reg.device(node.ID)
		for portIdx, port := range node.Ports {
			peer := r.reg.device(port.Peer)
			name := fmt.Sprintf("%s:p%d->%s", node.Name, portIdx, r.topo.Node(port.Peer).Name)
			link := netsim.NewLink(r.sched, name, port.Rate, port.Delay, peer, port.PeerPort)
			link.OnStranded = r.onStranded
			if r.rec != nil {
				// When tracing, identify the sending end of the link in the
				// stranding event. The extra closure exists only on traced
				// runs; untraced runs keep the shared allocation-free handler.
				nodeID, p := node.ID, portIdx
				link.OnStranded = func(pkt *packet.Packet) {
					r.rec.Record(telemetry.Event{At: r.sched.Now(), Kind: telemetry.KindStranded,
						Node: nodeID, Port: int32(p), Queue: -1, Flow: pkt.Flow.ID, Value: int64(pkt.Size)})
					r.onStranded(pkt)
				}
			}
			if !r.owned(port.Peer) {
				link.SetBoundary(&out[r.plan.Assign[port.Peer]])
			}
			dev.AttachLink(portIdx, link)
		}
	}
}

// Scenario integration ---------------------------------------------------------

// scenarioParams builds the compile context a scenario spec resolves against.
// It depends on the options and the base trace alone, so a spec compiles to
// the identical flow set (same IDs, ports, RNG draws) at every shard count.
func scenarioParams(opts *Options, flows []*packet.Flow, horizon units.Time) scenario.Params {
	var maxID packet.FlowID
	for _, f := range flows {
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	sketchSize := 0
	if opts.StreamingStats {
		sketchSize = opts.StatsSketchSize
	}
	return scenario.Params{
		Topo:            opts.Topo,
		Hosts:           opts.Topo.Hosts(),
		HostRate:        opts.Topo.HostRate(opts.Topo.Hosts()[0]),
		Horizon:         horizon,
		FirstFlowID:     maxID + 1,
		StatsSketchSize: sketchSize,
	}
}

// onStranded is the terminal owner of packets lost on failed links: it keeps
// the loss accounting and recycles the packet so nothing leaks from the pool.
func (r *runner) onStranded(p *packet.Packet) {
	r.strandedPkts++
	r.strandedBytes += p.Size
	r.pool.Put(p)
}

// startInjected is the landing point for scenario flow injections: it counts
// the injection runner-locally, starts the flow at its source NIC, and keeps
// the offered-flow accounting consistent with the base trace.
func (r *runner) startInjected(f *packet.Flow) {
	r.injectedFlows++
	r.reg.nics[f.Src].StartFlow(f)
	if !f.IsIncast && !f.LongLived {
		r.flowsTotal++
	}
}

func (r *runner) scheduleFlows(flows []*packet.Flow) {
	start := func(x any) {
		f := x.(*packet.Flow)
		r.reg.nics[f.Src].StartFlow(f)
	}
	for _, f := range flows {
		if !r.owned(f.Src) {
			continue
		}
		// Flow arrivals are causal roots: the tag seeds the flow's ID into
		// every event descending from it, ordering same-key descendants of
		// simultaneous arrivals (an incast burst) by flow creation order on
		// every shard.
		r.sched.ScheduleCallTagged(f.StartTime, uint64(f.ID), start, f)
		if !f.IsIncast && !f.LongLived {
			r.flowsTotal++
		}
	}
}

func (r *runner) onFlowComplete(f *packet.Flow) {
	if f.LongLived {
		return
	}
	rec := fctRec{start: f.StartTime, size: f.Size, fct: f.FCT(),
		ideal: IdealFCT(r.topo, r.opts.MTU, f), incast: f.IsIncast}
	if r.result != nil {
		rec.record(r.result, r.scen)
		return
	}
	// One shard of several: the coordinator records completions into the
	// run's collectors ordered by the triggering delivery event's key, so the
	// merged record stream is byte-identical to the one-shard stream.
	rec.key = r.sched.CurrentKey()
	r.fctBuf = append(r.fctBuf, rec)
}

// IdealFCT is the best possible completion time for a flow on an unloaded
// network: the one-way path latency of its first packet plus the time to
// stream the remaining bytes (with per-packet headers) at the slowest link on
// the path. It is the denominator of every FCT-slowdown the evaluation
// reports.
func IdealFCT(topo *topology.Topology, mtu units.Bytes, f *packet.Flow) units.Time {
	rate := topo.MinPathRate(f.Src, f.Dst)
	firstPkt := minBytes(f.Size, mtu) + packet.DataHeaderSize
	wireBytes := f.Size + units.Bytes(f.NumPackets(mtu))*packet.DataHeaderSize
	oneWay := topo.PathOneWay(f.Src, f.Dst, firstPkt)
	return oneWay + units.SerializationTime(wireBytes, rate) - units.SerializationTime(firstPkt, rate)
}

func minBytes(a, b units.Bytes) units.Bytes {
	if a < b {
		return a
	}
	return b
}
