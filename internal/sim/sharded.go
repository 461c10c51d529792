package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/telemetry"
	"bfc/internal/telemetry/execstats"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// One engine
//
// Every run is the coordinator loop of runSharded over a shard plan, and a run
// that does not partition is its one-shard case. A plan of S shards gives each
// shard its own scheduler, packet pool, and devices, and advances them in
// lockstep windows under conservative parallel discrete-event simulation:
//
//   - The shard planner (topology.PlanShards) assigns whole pods to shards
//     and spreads core switches round-robin. The conservative lookahead W is
//     the minimum propagation delay over cross-shard links: a delivery
//     emitted during a window reaches another shard no earlier than one full
//     W later, so windows of width <= W never miss a cross-shard event. A
//     one-shard plan has no cross-shard links and no such sync barriers.
//   - Cross-shard links append their deliveries to boundary queues (one
//     reusable slice per directed shard pair) instead of scheduling locally.
//     At each barrier the coordinator drains every queue — in deterministic
//     shard order — into the receiving shards' schedulers.
//   - Every event carries its scheduling-chain ordering key (see
//     eventsim.Key). Boundary deliveries are injected under the key they
//     would have carried on one scheduler, so each shard's heap interleaves
//     remote and local events exactly as one shard's heap would, and the
//     whole run is byte-identical at every shard count.
//   - Statistics barriers are the sampling tick: at each tick instant T the
//     coordinator flushes events ordered before the tick's key (T, T-Δ,
//     T-2Δ, T-3Δ), then samples all switches in topology order. This is the
//     one place a run samples; collect, after the horizon, is the one place
//     it reads its totals.
//   - Scenario events are compiled once (scenario.Plan) and applied by the
//     coordinator at dedicated barriers at each event instant: every shard
//     flushes the events ordered before the event's setup-phase key, then —
//     with all shards parked — the coordinator mutates the shared topology
//     and the affected shards' links (scenario.Planned.Apply). Injected flows
//     need no coordination: each shard schedules the pre-generated flows
//     whose sources it owns, under their keys.
//   - One shard's own streams are already in key order, so it records flow
//     completions straight into the Result and traces straight into the
//     caller's ring. Two or more shards buffer both, stamped with the key of
//     the emitting dispatch (the coordinator stamps its scenario records with
//     the event keys), and the coordinator merges the per-shard streams in
//     key order after the run — reproducing the one-shard streams.

// fctRec is one flow completion. The shards of a partitioned run buffer them,
// stamped with the key of the completing event, until the coordinator merges
// the per-shard streams in key order; a one-shard run records each as it
// happens (key unused). start carries the flow's start time for scenario
// phase attribution.
type fctRec struct {
	key    eventsim.Key
	start  units.Time
	size   units.Bytes
	fct    units.Time
	ideal  units.Time
	incast bool
}

// record enters the completion into the run's collectors and, under a
// scenario, its phase attribution.
func (c *fctRec) record(res *Result, scen *scenario.Metrics) {
	if scen != nil {
		scen.RecordCompletion(c.start, c.size, c.fct, c.ideal, c.incast)
	}
	if c.incast {
		res.FCTIncast.Record(c.size, c.fct, c.ideal)
		return
	}
	res.FlowsCompleted++
	res.FCT.Record(c.size, c.fct, c.ideal)
}

// ShardInfo reports how a run was executed: the shard count requested, the
// count actually used (1 = the one-shard, serial case), and — when a sharded
// request ran on one shard — the reason. It is excluded from the marshalled
// Result so digests stay comparable across shard counts.
type ShardInfo struct {
	Requested int
	Used      int
	Fallback  string
}

// Describe renders the execution mode for CLI output: "sharded(N)" when the
// run partitioned, "serial" when one shard was requested, and
// "forced-serial(reason)" when a sharded request ran on one shard — so a
// fallback is visible instead of silent.
func (s ShardInfo) Describe() string {
	switch {
	case s.Used > 1:
		return fmt.Sprintf("sharded(%d)", s.Used)
	case s.Requested == 0 || s.Requested == 1:
		return "serial"
	default:
		return fmt.Sprintf("forced-serial(%s)", s.Fallback)
	}
}

// shardPlanFor resolves Options.Shards into a shard plan; a run that does not
// partition gets the one-shard plan. The returned reason is non-empty exactly
// when a sharded request (Shards >= 2 or -1) runs on one shard: auto on one
// CPU, a topology that does not partition (single pod), or no positive
// lookahead.
func shardPlanFor(opts *Options) (*topology.ShardPlan, string) {
	want := opts.Shards
	switch {
	case want == 0 || want == 1:
		return topology.PlanShards(opts.Topo, 1), ""
	case want < 0:
		if want = runtime.GOMAXPROCS(0); want == 1 {
			return topology.PlanShards(opts.Topo, 1), "one CPU: GOMAXPROCS=1"
		}
	}
	plan := topology.PlanShards(opts.Topo, want)
	if plan.Shards < 2 {
		return plan, "topology does not partition into multiple shards"
	}
	if plan.Lookahead <= 0 {
		return topology.PlanShards(opts.Topo, 1), "no positive cross-shard lookahead"
	}
	plan.Validate(opts.Topo)
	return plan, ""
}

// tickKeyAt is the ordering key of the sampling tick at instant t with period
// d: the key of a ticker started during setup, each tick scheduled by its
// predecessor, so the chain is arithmetic, with SetupTime sentinels where it
// reaches back into the construction phase.
func tickKeyAt(t, d units.Time) eventsim.Key {
	k := eventsim.Key{At: t}
	for i := range k.Chain {
		v := t - units.Time(i+1)*d
		if v < 0 {
			v = eventsim.SetupTime
		}
		k.Chain[i] = v
	}
	return k
}

// setupKeyAt is the ordering key of a scenario event at instant t: the key of
// an event scheduled during construction (clock at zero, outside any
// dispatch), so the chain is instant 0 followed by the SetupTime sentinels,
// with tags, kids, kid and tag all zero. The only other events carrying this
// exact key shape are the first sampling tick (which goes first on the tie,
// see the barrier loop) and scenario events at the same instant (applied in
// spec order).
func setupKeyAt(t units.Time) eventsim.Key {
	k := eventsim.Key{At: t}
	for i := 1; i < eventsim.ChainDepth; i++ {
		k.Chain[i] = eventsim.SetupTime
	}
	return k
}

// keyedEvent is one flight-recorder event stamped with the ordering key of
// the dispatch (or barrier-applied scenario closure) that emitted it.
type keyedEvent struct {
	key eventsim.Key
	ev  telemetry.Event
}

// shardRecorder is the per-shard flight recorder of a partitioned run: a
// bounded ring of keyed events sized like the caller's ring. Each shard
// retaining its own last C events guarantees the shards' union contains the
// last C events of the merged serial-order stream, so replaying the merge
// into the caller's ring reproduces the serial trace. The coordinator uses
// one with a nil scheduler and stamps the key explicitly.
type shardRecorder struct {
	sched *eventsim.Scheduler
	key   eventsim.Key
	buf   []keyedEvent
	next  int
}

func newShardRecorder(sched *eventsim.Scheduler, ring *telemetry.Ring) *shardRecorder {
	return &shardRecorder{
		sched: sched,
		buf:   make([]keyedEvent, 0, ring.Cap()),
	}
}

// Record implements telemetry.Recorder.
func (sr *shardRecorder) Record(ev telemetry.Event) {
	k := sr.key
	if sr.sched != nil {
		k = sr.sched.CurrentKey()
	}
	if len(sr.buf) < cap(sr.buf) {
		sr.buf = append(sr.buf, keyedEvent{key: k, ev: ev})
		return
	}
	sr.buf[sr.next] = keyedEvent{key: k, ev: ev}
	sr.next++
	if sr.next == len(sr.buf) {
		sr.next = 0
	}
}

// events returns the retained keyed events in emission order.
func (sr *shardRecorder) events() []keyedEvent {
	if len(sr.buf) == cap(sr.buf) && sr.next > 0 {
		out := make([]keyedEvent, 0, len(sr.buf))
		out = append(out, sr.buf[sr.next:]...)
		out = append(out, sr.buf[:sr.next]...)
		return out
	}
	return sr.buf
}

// mergeFCT merges the per-shard completion buffers into serial key order.
// Each shard's buffer is already key-sorted (heaps pop in key order), and the
// stable sort keeps lower shard indexes first on exact ties — the same order
// the drains imposed.
func mergeFCT(bufs [][]fctRec) []fctRec {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	recs := make([]fctRec, 0, n)
	for _, b := range bufs {
		recs = append(recs, b...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].key.Less(recs[j].key) })
	return recs
}

// runSharded executes the simulation on plan.Shards shards, one or more.
func runSharded(opts Options, plan *topology.ShardPlan, flows []*packet.Flow) (*Result, error) {
	S := plan.Shards
	horizon := opts.Duration + opts.Drain

	// ec profiles the execution machinery (nil when Options.ExecStats is off:
	// every call below is then a single nil check). It is observational only —
	// it reads wall clocks and engine counters, never the simulation state.
	var ec *execstats.Collector
	if opts.ExecStats {
		ec = execstats.NewCollector(S)
	}

	// Per-shard runners build only the devices their shard owns, into the one
	// registry they share with the coordinator. Every shard derives device
	// seeds from (Options.Seed, NodeID) and draws packets from its own pool, so
	// construction is independent of the partition. Traced partitioned runs
	// swap each shard's recorder for a keyed per-shard ring before any device
	// captures it; the one shard of a one-shard run keeps the caller's ring.
	reg := newRegistry(opts.Topo)
	shards := make([]*runner, S)
	var srecs []*shardRecorder
	for i := range shards {
		r := newRunner(opts, reg)
		r.plan, r.shardID = plan, i
		if S > 1 && opts.Recorder != nil {
			sr := newShardRecorder(r.sched, opts.Recorder)
			r.rec = sr
			srecs = append(srecs, sr)
		}
		shards[i] = r
	}
	for _, r := range shards {
		r.buildDevices()
	}

	// One boundary queue per directed shard pair. All cross-shard links of a
	// pair share it, so the receiver sees the sender's emissions in the
	// sender's scheduling order — the same relative order one scheduler's
	// sequence numbers would have imposed.
	bounds := make([][]netsim.Boundary, S)
	for i, r := range shards {
		bounds[i] = make([]netsim.Boundary, S) // [i][i] stays unused
		r.wireLinks(bounds[i])
		r.scheduleFlows(flows)
	}
	reg.buildLinkClasses()

	// Scenario: compile once, schedule the injected flows per owning shard
	// under their keys, and leave the events themselves to the coordinator's
	// barriers. Their trace records go where the shards' go: the caller's ring
	// on one shard, a keyed coordinator ring on several.
	var scen *scenario.Planned
	var scenM *scenario.Metrics
	var scenRec telemetry.Recorder // stays nil, not a nil pointer, when untraced
	var coordRec *shardRecorder
	if opts.Scenario != nil {
		pl, err := scenario.Plan(opts.Scenario, scenarioParams(&opts, flows, horizon))
		if err != nil {
			return nil, err
		}
		scen, scenM = pl, pl.Metrics()
		for _, r := range shards {
			pl.ScheduleFlows(r.sched, r.owned, r.startInjected)
		}
		switch {
		case opts.Recorder == nil:
		case S == 1:
			scenRec = opts.Recorder
		default:
			coordRec = newShardRecorder(nil, opts.Recorder)
			scenRec = coordRec
		}
	}

	// The coordinator owns the Result: it samples the shared registry at tick
	// barriers and collects from it at the end. The one shard of a one-shard
	// run completes flows in key order already and records them straight into
	// it.
	res := newResult(&opts)
	if S == 1 {
		shards[0].result, shards[0].scen = res, scenM
	}
	sws := reg.sampleSwitches()

	// Ticks and scenario events are events of the run that no shard
	// executes: the coordinator counts them, and they feed both Result.Events
	// and the series sampler's events-per-tick counter.
	var ticks, coordExec uint64
	executedEmu := func() uint64 {
		var sum uint64
		for _, r := range shards {
			sum += r.sched.Executed
		}
		return sum + ticks + coordExec
	}
	// The statistics tick fires every delta; each walks sws once (sampleTick).
	delta := bufferSampleInterval(opts.Topo)
	var series *seriesSampler
	if opts.SampleSeries {
		series = reg.newSeriesSampler(sws, delta, executedEmu)
	}

	// Window loop. Barriers sit at every multiple of the lookahead W (drain
	// points — consecutive barriers are never more than W apart, so every
	// boundary delivery is drained before its arrival instant), at every
	// multiple of the sampling period Δ (tick points), and at every scenario
	// event instant, up to the horizon. One shard has nothing to drain: its
	// W is the horizon.
	W := plan.Lookahead
	if S == 1 {
		W = horizon
	}

	var evTimes []units.Time
	if scen != nil {
		evTimes = scen.EventTimes(horizon)
	}
	evIdx := 0

	runOne := func(r *runner, f func(r *runner)) {
		if ec == nil {
			f(r)
			return
		}
		t0 := time.Now()
		f(r)
		ec.ShardBusy(r.shardID, time.Since(t0))
	}
	var wg sync.WaitGroup
	runAll := func(f func(r *runner)) {
		if S == 1 {
			runOne(shards[0], f) // on the coordinator's goroutine
			return
		}
		wg.Add(S)
		for _, r := range shards {
			go func() {
				// Each goroutine writes only its own shard's slot of ec; the
				// wg.Wait below is the happens-before edge for the reader.
				defer wg.Done()
				runOne(r, f)
			}()
		}
		wg.Wait()
	}
	drainAll := func() {
		var t0 time.Time
		if ec != nil {
			t0 = time.Now()
		}
		drained := 0
		for to := 0; to < S; to++ {
			for from := 0; from < S; from++ {
				if from != to {
					drained += bounds[from][to].DrainInto(shards[to].sched)
				}
			}
		}
		if ec != nil {
			ec.Barrier(time.Since(t0), drained)
		}
	}
	nextSync, nextTick := W, delta
	for {
		b := nextSync
		if nextTick < b {
			b = nextTick
		}
		if evIdx < len(evTimes) && evTimes[evIdx] < b {
			b = evTimes[evIdx]
		}
		if horizon < b {
			b = horizon
		}
		ec.BeginWindow()
		// Window: every shard runs strictly below the barrier, in parallel;
		// deliveries crossing shards pile up in the boundary queues.
		runAll(func(r *runner) { r.sched.RunBefore(b) })
		// Barrier: the join above is the happens-before edge that lets the
		// coordinator drain the queues without atomics.
		drainAll()

		doTick := func() {
			k := tickKeyAt(b, delta)
			runAll(func(r *runner) { r.sched.RunBeforeKey(k) })
			sampleTick(res, sws, series)
			ticks++
			nextTick += delta
		}
		doEvents := func() {
			k := setupKeyAt(b)
			runAll(func(r *runner) { r.sched.RunBeforeKey(k) })
			if coordRec != nil {
				coordRec.key = k
			}
			coordExec += uint64(scen.Apply(b, reg, scenRec))
			evIdx++
		}
		isTick := b == nextTick
		isEvent := evIdx < len(evTimes) && evTimes[evIdx] == b
		switch {
		case isEvent && isTick:
			// Same instant: key order decides. The keys are equal only at the
			// first tick (both of setup shape), where the tick goes first.
			if setupKeyAt(b).Less(tickKeyAt(b, delta)) {
				doEvents()
				doTick()
			} else {
				doTick()
				doEvents()
			}
		case isEvent:
			doEvents()
		case isTick:
			doTick()
		}
		ec.EndWindow(executedEmu())
		if b == nextSync {
			nextSync += W
		}
		if b >= horizon {
			break
		}
	}
	// Events firing exactly at the horizon run inclusively; anything they
	// emit arrives beyond the horizon on every shard.
	ec.BeginWindow()
	runAll(func(r *runner) { r.sched.RunUntil(horizon) })
	ec.EndWindow(executedEmu())

	// Several shards: merge flow completions in key order. Scenario phase
	// attribution replays in the same merged order, so the phase collectors
	// fill exactly as one shard's would.
	if S > 1 {
		bufs := make([][]fctRec, S)
		for i, r := range shards {
			bufs[i] = r.fctBuf
		}
		merged := mergeFCT(bufs)
		for i := range merged {
			merged[i].record(res, scenM)
		}
	}

	// Counters accumulated shard-locally during parallel windows. Offered-flow
	// counts merge after the run because injected scenario flows join a shard's
	// count when their injection event fires, not at construction.
	for _, r := range shards {
		res.FlowsTotal += r.flowsTotal
		if scenM != nil {
			scenM.StrandedPackets += r.strandedPkts
			scenM.StrandedBytes += r.strandedBytes
			scenM.InjectedFlows += r.injectedFlows
		}
	}

	reg.collect(res, horizon, flows, scenM)
	res.Events = executedEmu()
	if series != nil {
		res.Telemetry = series.finish()
	}

	// Seal the execution profile: the collector contributes windows, barriers,
	// and busy/wait timings; scheduler, pool, and boundary finals come from
	// the engines themselves. Boundary totals sum each shard's *outbound*
	// queues, so per-shard counters add up to run totals exactly once.
	if ec != nil {
		rs := ec.Finish()
		for i, r := range shards {
			ss := &rs.Shards[i]
			ss.Events = r.sched.Executed
			ss.HeapHighWater = r.sched.HeapHighWater()
			ss.PoolAllocated = r.pool.Allocated()
			ss.PoolRecycled = r.pool.Recycled()
			for to := range bounds[i] {
				st := bounds[i][to].Stats()
				ss.Boundary.Merge(st.Pushes, st.MaxDrain)
			}
		}
		rs.TotalEvents = res.Events
		rs.CoordEvents = ticks + coordExec
		res.Exec = rs
	}

	// Several shards: replay the merged trace into the caller's ring in key
	// order. Per shard the buffers are emission-ordered (equal keys = one
	// dispatch), so the stable sort reproduces the one-shard stream; the ring
	// then retains its last-capacity window of it, as one shard's ring would.
	if len(srecs) > 0 {
		var all []keyedEvent
		for _, sr := range srecs {
			all = append(all, sr.events()...)
		}
		if coordRec != nil {
			all = append(all, coordRec.events()...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].key.Less(all[j].key) })
		for i := range all {
			opts.Recorder.Record(all[i].ev)
		}
	}
	return res, nil
}
