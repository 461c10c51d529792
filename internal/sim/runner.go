package sim

import (
	"fmt"
	"slices"

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

	// Telemetry carries the time-series bundle when Options.SampleSeries
	// was set; nil (and absent from the JSON) otherwise, so untraced
	// results stay byte-identical to pre-telemetry ones. Digest
	// comparisons across the on/off boundary use ResultDigest, which excludes
	// this field.
	Telemetry *telemetry.RunSeries `json:"Telemetry,omitempty"`

	// Sharding reports how the run was executed (shards requested and used,
	// and why a sharded request ran on one shard, if it did). Excluded from
	// the JSON so serialized results — and their digests — stay byte-identical
	// across shard counts, which is the engine's core contract.
	Sharding ShardInfo `json:"-"`

	// Exec carries the run's execution profile, which every Run sets: the
	// wall-clock profile and the per-shard counts its books were checked
	// against. Excluded from the JSON (and therefore from ResultDigest and
	// persisted artifacts, which deliberately carry no wall-clock
	// information): a record served from a store has none.
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
	if err := checkFlowIDs(flows); err != nil {
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

// checkFlowIDs fails on a flow ID that appears twice: IDs tag every event a
// flow causes and name it in traces, so two flows must never share one.
func checkFlowIDs(flows []*packet.Flow) error {
	ids := make([]packet.FlowID, len(flows))
	for i, f := range flows {
		ids[i] = f.ID
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("sim: flow ID %d appears more than once", ids[i])
		}
	}
	return nil
}

type runner struct {
	opts  Options
	sched *eventsim.Scheduler
	topo  *topology.Topology
	pool  *packet.Pool
	// filters recycles the BFC pause filters of the shard's devices, as pool
	// does packets; a filter lost on a link goes back to the receiver's.
	filters *bloom.Pool
	// frames holds the records of the control frames the shard receives.
	frames netsim.Frames
	// links is the slab of the links whose sending end the shard owns.
	links []netsim.Link

	// reg holds the run's devices; the shard runners of a partitioned run
	// share one and each build only the devices they own.
	reg *registry

	// plan and shardID restrict the runner to one shard of the run: it builds
	// and runs only the devices its shard is assigned. Sampling belongs to the
	// coordinator.
	plan    *topology.ShardPlan
	shardID int

	// sends and recvs are the numbers of flows the shard's NICs source and
	// sink (assignSlots): the sizes of the slabs they share. sentBy is the
	// run's count of the flows each host sends, indexed by node.
	sends, recvs int
	sentBy       []int

	// fcts buffers the shard's flow completions of the current barrier step,
	// keyed, for the coordinator's merge.
	fcts []keyed[fctRec]

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
	longLivedDone int // long-lived flows completed, which the Result does not record

	// strand is onStranded as one func value, shared by every untraced link
	// whose deliveries this runner receives.
	strand func(*packet.Packet)

	// rec is the shard's keyed flight recorder (nil when untraced: a nil
	// *shardRecorder in the interface field would be a non-nil Recorder, and
	// every emit site's nil check would pass).
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
		FCT:               stats.NewFCTCollector(),
		FCTIncast:         stats.NewFCTCollector(),
		PauseTimeFraction: map[string]float64{},
	}
	if opts.StreamingStats {
		// Constant-memory mode: every distribution the run grows without
		// bound in exact mode becomes a fixed-capacity sketch.
		res.FCT = stats.NewStreamingFCTCollector()
		res.FCTIncast = stats.NewStreamingFCTCollector()
		res.BufferOccupancy = stats.NewStreamingDistribution()
		res.OccupiedQueues = stats.NewStreamingDistribution()
	}
	return res
}

func newRunner(opts Options, reg *registry) *runner {
	r := &runner{
		opts:    opts,
		sched:   eventsim.New(),
		topo:    opts.Topo,
		pool:    packet.NewPool(),
		filters: bloom.NewPool(),
		reg:     reg,
	}
	r.strand = r.onStranded
	return r
}

// buildDevices constructs the switches and NICs this runner owns, each kind
// carved from slabs sized for the shard.
func (r *runner) buildDevices() {
	switches, ports, hosts := 0, 0, 0
	for _, node := range r.topo.Nodes() {
		switch {
		case !r.owned(node.ID):
		case node.Kind == topology.Switch:
			switches, ports = switches+1, ports+len(node.Ports)
		default:
			hosts++
		}
	}
	r.buildSwitches(switches, ports)
	r.buildNICs(hosts)
}

// bfcConfig is the BFC engine configuration the options ask for. Each switch
// derives its queue count, HRTT, τ and fallback salt itself (switchsim.New).
func bfcConfig(opts *Options) *core.Config {
	cfg := core.DefaultConfig()
	cfg.NumVFIDs = opts.NumVFIDs
	cfg.Bloom = bloom.Params{SizeBytes: opts.BloomBytes, Hashes: bloom.DefaultHashes}
	cfg.DynamicAssignment = opts.Scheme != SchemeBFCStatic
	cfg.UseHighPriorityQueue = opts.HighPriorityQueue
	cfg.ResumeAll = opts.ResumeAll
	return &cfg
}

// buildSwitches and buildNICs fill one configuration per device kind and
// hand a copy of it, with the node filled in, to every device they build.
func (r *runner) buildSwitches(switches, ports int) {
	opts := r.opts
	cfg := switchsim.Config{
		Scheduler:        r.sched,
		Topo:             r.topo,
		MTU:              MTU,
		NumQueues:        opts.NumQueues,
		BufferSize:       opts.SwitchBuffer,
		EnablePFC:        !opts.DisablePFC,
		PFCThresholdFrac: 0.11,
		Seed:             opts.Seed,
		Pool:             r.pool,
		Filters:          r.filters,
		Recorder:         r.rec,
	}
	switch opts.Scheme {
	case SchemeBFC, SchemeBFCStatic:
		cfg.BFC = bfcConfig(&opts)
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
	cfg.Slabs = switchsim.NewSlabs(&cfg, switches, ports)
	for _, node := range r.topo.Nodes() {
		if node.Kind == topology.Switch && r.owned(node.ID) {
			cfg.Node = node
			r.reg.switches[node.ID] = switchsim.New(cfg)
			r.reg.sched[node.ID] = r.sched
		}
	}
}

func (r *runner) buildNICs(hosts int) {
	opts := r.opts
	topo := r.topo
	// A flow's end-to-end window (+Win, Ideal-FQ) and HPCC's base RTT are
	// its own path's: one bandwidth-delay product of its source's line rate
	// and its path's base RTT.
	pathRTT := func(f *packet.Flow) units.Time {
		return topo.PathRTT(f.Src, f.Dst, MTU+packet.DataHeaderSize)
	}
	cfg := nic.Config{
		Scheduler:      r.sched,
		Topo:           topo,
		MTU:            MTU,
		RTO:            4 * units.Millisecond,
		OnFlowComplete: r.onFlowComplete,
		Pool:           r.pool,
		Filters:        r.filters,
		Recorder:       r.rec,
		Slabs:          nic.NewSlabs(hosts, r.sends, r.recvs),
	}
	// Each flow's controller is the record at its SendSlot in a slab sized,
	// like the NIC's sender slab, to the flows this shard sources.
	switch opts.Scheme {
	case SchemeBFC, SchemeBFCStatic:
		cfg.VFIDSpace = opts.NumVFIDs
	case SchemeDCQCN, SchemeDCQCNWin, SchemeDCQCNWinSFQ:
		windowed := opts.Scheme != SchemeDCQCN
		cfg.GenerateCNP = true
		cfg.CNPInterval = dcqcn.CNPInterval
		ctrls := make([]dcqcn.Controller, r.sends)
		cfg.NewController = func(f *packet.Flow) cc.Controller {
			rate := topo.HostRate(f.Src)
			p := dcqcn.Params{LineRate: rate}
			if windowed {
				p.Window = units.BDP(rate, pathRTT(f))
			}
			c := &ctrls[f.SendSlot]
			c.Init(p)
			return c
		}
	case SchemeHPCC:
		cfg.EchoINT = true
		ctrls := make([]hpcc.Controller, r.sends)
		cfg.NewController = func(f *packet.Flow) cc.Controller {
			c := &ctrls[f.SendSlot]
			c.Init(hpcc.Params{LineRate: topo.HostRate(f.Src), BaseRTT: pathRTT(f)})
			return c
		}
	case SchemeIdealFQ:
		ctrls := make([]cc.FixedWindow, r.sends)
		cfg.NewController = func(f *packet.Flow) cc.Controller {
			c := &ctrls[f.SendSlot]
			*c = cc.FixedWindow{W: units.BDP(topo.HostRate(f.Src), pathRTT(f))}
			return c
		}
	}
	for _, node := range r.topo.Nodes() {
		if node.Kind == topology.Host && r.owned(node.ID) {
			cfg.Node, cfg.Flows = node, r.sentBy[node.ID]
			r.reg.nics[node.ID] = nic.New(cfg)
			r.reg.sched[node.ID] = r.sched
		}
	}
}

// wireLinks creates the outgoing unidirectional links of every node this
// runner owns, in one slab, and attaches them to the devices. Receiving
// devices come from the registry (which spans all shards, so every shard's
// devices must be built first). A link whose peer another shard owns is
// marked cross-shard: it delivers through out[that shard], this shard's row
// of the run's boundary queues. A one-shard run owns every node and has none.
//
// A link's losses belong to the shard that receives them: a delivery — and
// so the strand of a packet lost on the down link — runs on the receiving
// device's scheduler, so the stranded packet goes to that shard's runner in
// shards, which recycles it into its own pool, counts it and traces it. The
// filter of a lost pause frame goes back to that shard's filter pool, and
// every control frame the shard receives travels in a record of its frames.
func (r *runner) wireLinks(shards []*runner, out []netsim.Boundary) {
	n := 0
	for _, node := range r.topo.Nodes() {
		if r.owned(node.ID) {
			n += len(node.Ports)
		}
	}
	links := make([]netsim.Link, n)
	r.links = links
	for _, node := range r.topo.Nodes() {
		if !r.owned(node.ID) {
			continue
		}
		dev := r.reg.device(node.ID)
		for portIdx, port := range node.Ports {
			link := &links[0]
			links = links[1:]
			link.Init(r.sched, "", port.Rate, port.Delay, r.reg.device(port.Peer), port.PeerPort)
			recv := shards[r.plan.Assign[port.Peer]]
			link.OnStranded = recv.strand
			link.Filters = recv.filters
			link.Frames = &recv.frames
			if recv.rec != nil {
				// When tracing, identify the sending end of the link in the
				// stranding event. The extra closure exists only on traced
				// runs; untraced runs share the receiver's handler.
				nodeID, p := node.ID, portIdx
				link.OnStranded = func(pkt *packet.Packet) {
					recv.rec.Record(telemetry.Event{At: recv.sched.Now(), Kind: telemetry.KindStranded,
						Node: nodeID, Port: int32(p), Queue: -1, Flow: pkt.Flow.ID, Value: int64(pkt.Size)})
					recv.onStranded(pkt)
				}
			}
			if !r.owned(port.Peer) {
				link.SetBoundary(&out[r.plan.Assign[port.Peer]])
			}
			dev.AttachLink(portIdx, link)
		}
	}
}

// deviceCounts adds to ss what the shard's devices hold and its NICs began
// and finished, and returns the first of its switches' audits to fail;
// books.balance states what the sums must come to.
func (r *runner) deviceCounts(ss *execstats.ShardStats) error {
	for _, node := range r.topo.Nodes() {
		if !r.owned(node.ID) {
			continue
		}
		sw := r.reg.switches[node.ID]
		if sw == nil {
			n := r.reg.nics[node.ID]
			st := n.Stats()
			ss.FiltersHeld += n.HeldFilters()
			ss.FlowsStarted, ss.FlowsCompleted = ss.FlowsStarted+st.FlowsStarted, ss.FlowsCompleted+st.FlowsCompleted
			continue
		}
		ss.FiltersHeld += sw.HeldFilters()
		a, err := sw.Audit()
		if err != nil {
			return err
		}
		ss.QueuedPackets, ss.QueuedBytes = ss.QueuedPackets+a.QueuedPackets, ss.QueuedBytes+int64(a.QueuedBytes)
		ss.FlowEntries, ss.PausedVFIDs = ss.FlowEntries+a.FlowEntries, ss.PausedVFIDs+a.PausedVFIDs
		ss.BufferPeak = max(ss.BufferPeak, int64(a.BufferPeak))
	}
	for i := range r.links {
		ss.FiltersInFlight += r.links[i].FiltersInFlight()
	}
	return nil
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
	return scenario.Params{
		Topo:        opts.Topo,
		Horizon:     horizon,
		FirstFlowID: maxID + 1,
		Streaming:   opts.StreamingStats,
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

// scheduleFlows files the arrivals of the base flows the shard sources. It
// first reserves room for all r.sends arrivals the shard files before its
// first event: these and the scenario's injected flows it sources.
func (r *runner) scheduleFlows(flows []*packet.Flow) {
	r.sched.Reserve(r.sends)
	start := func(x any) {
		f := x.(*packet.Flow)
		r.reg.nics[f.Src].StartFlow(f)
	}
	for _, f := range flows {
		if !r.owned(f.Src) {
			continue
		}
		// Each arrival is its source NIC's own schedule, in flow order.
		r.sched.ScheduleCallTo(f.StartTime, int32(f.Src), start, f)
		if !f.IsIncast && !f.LongLived {
			r.flowsTotal++
		}
	}
}

func (r *runner) onFlowComplete(f *packet.Flow) {
	if f.LongLived {
		r.longLivedDone++
		return
	}
	// The coordinator records completions into the run's collectors ordered
	// by the triggering delivery event's key, so the merged stream is the
	// same at every shard count.
	r.fcts = append(r.fcts, keyed[fctRec]{key: r.sched.CurrentKey(), v: fctRec{start: f.StartTime,
		size: f.Size, fct: f.FCT(), ideal: IdealFCT(r.topo, f), incast: f.IsIncast}})
}

// IdealFCT is the best possible completion time for a flow on an unloaded
// network: the one-way path latency of its first packet plus the time to
// stream the remaining bytes (with per-packet headers) at the slowest link on
// the path. It is the denominator of every FCT-slowdown the evaluation
// reports.
func IdealFCT(topo *topology.Topology, f *packet.Flow) units.Time {
	rate := topo.MinPathRate(f.Src, f.Dst)
	firstPkt := min(f.Size, MTU) + packet.DataHeaderSize
	wireBytes := f.Size + units.Bytes(f.NumPackets(MTU))*packet.DataHeaderSize
	oneWay := topo.PathOneWay(f.Src, f.Dst, firstPkt)
	return oneWay + units.SerializationTime(wireBytes, rate) - units.SerializationTime(firstPkt, rate)
}
