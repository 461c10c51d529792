package sim

import (
	"fmt"
	"iter"
	"runtime"
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
//   - Every event carries its ordering key (eventsim.Key): its instant, its
//     generation, the device that scheduled it and that device's count, all
//     computed alike on every partition. Boundary deliveries are injected
//     under the key the sender gave them, so each shard's queue interleaves
//     remote and local events exactly as one shard's queue would, and the
//     whole run is byte-identical at every shard count.
//   - Statistics barriers are the sampling tick: at each tick instant T the
//     coordinator samples all switches in topology order after the window
//     ran everything below T. The tick is the Coordinator's, the lowest
//     owner, so it orders before every event at T and needs no further
//     shard step. This is the one place a run samples; collect, after the
//     horizon, is the one place it reads its totals.
//   - Scenario events are compiled once (scenario.Plan) and applied by the
//     coordinator at barriers at each event instant T, after the tick of T
//     if there is one: with all shards parked, the coordinator mutates the
//     shared topology and the affected shards' links
//     (scenario.Planned.Apply), and resets each affected device as that
//     device's own action under the Coordinator's next key (registry.act).
//     Injected flows need no coordination: each shard schedules the
//     pre-generated flows whose sources it owns, each as its source NIC's
//     own schedule.
//   - A run has two output streams, flow completions and flight-recorder
//     events, and they take one path at every shard count. Each shard
//     buffers its records during a barrier step (the window plus the
//     scenario actions at its barrier; the final RunUntil(horizon) is a step
//     too), each stamped with the key of the emitting dispatch or action;
//     the coordinator stamps its scenario records with the key it took for
//     the barrier's events, before any device action's. After each
//     step the coordinator merges the buffers in key order into the Result,
//     the scenario Metrics and the caller's ring, and empties them. Every
//     shard's stream is key-monotonic, so merging step by step gives the
//     order one merge at the end of the run would, while the buffers only
//     ever hold one step's records and the ring sees every event.

// keyed is one record of a run's stream stamped with the ordering key of the
// dispatch (or barrier-applied scenario closure) that emitted it.
type keyed[T any] struct {
	key eventsim.Key
	v   T
}

// stream is one of a run's two output streams, flow completions or
// flight-recorder events: the buffers its sources fill during a barrier step,
// in merge order (each shard's, then the coordinator's scenario records), and
// where the merged records go.
type stream[T any] struct {
	srcs []*[]keyed[T]
	pos  []int
	emit func(*T)
}

// add makes buf the stream's next source.
func (s *stream[T]) add(buf *[]keyed[T]) {
	s.srcs = append(s.srcs, buf)
	s.pos = append(s.pos, 0)
}

// merge is the coordinator's one merge, for both streams. Every source is
// key-ordered, so merge hands the step's records to emit in key order by
// taking the least head each time; then it empties the sources. Records of
// different sources never tie: each carries the key of the dispatch or
// action that emitted it, and one dispatch's records all come from one
// source, in emission order.
func (s *stream[T]) merge() {
	for {
		var head *keyed[T]
		best := 0
		for i, src := range s.srcs {
			if p := s.pos[i]; p < len(*src) && (head == nil || (*src)[p].key.Less(head.key)) {
				head, best = &(*src)[p], i
			}
		}
		if head == nil {
			break
		}
		s.emit(&head.v)
		s.pos[best]++
	}
	for i, src := range s.srcs {
		*src, s.pos[i] = (*src)[:0], 0
	}
}

// fctRec is one flow completion. start carries the flow's start time for
// scenario phase attribution.
type fctRec struct {
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

// shardRecorder is a shard's flight recorder: it buffers the events the
// shard emits during a barrier step, stamped with the key of the current
// dispatch, for the coordinator's merge. The coordinator uses one with a nil
// scheduler and stamps the key explicitly.
type shardRecorder struct {
	sched *eventsim.Scheduler
	key   eventsim.Key
	evs   []keyed[telemetry.Event]
}

// Record implements telemetry.Recorder.
func (sr *shardRecorder) Record(ev telemetry.Event) {
	k := sr.key
	if sr.sched != nil {
		k = sr.sched.CurrentKey()
	}
	sr.evs = append(sr.evs, keyed[telemetry.Event]{key: k, v: ev})
}

// shardSet runs one function on every shard of a run, each shard on a
// goroutine of its own when there are several and on the caller's when there
// is one, and returns when all are done: the join is the happens-before edge
// between what the shards wrote and what the coordinator reads next. It is
// built once per run, with one WaitGroup and one goroutine body per shard, so
// a barrier step allocates nothing: a go statement on a built func value
// makes no closure.
type shardSet struct {
	shards []*runner
	// f is the function of the step in progress; the go statements and the
	// join order the coordinator's writes of it before the bodies' reads.
	f      func(r *runner)
	wg     sync.WaitGroup
	bodies []func()
}

func newShardSet(shards []*runner) *shardSet {
	s := &shardSet{shards: shards}
	if len(shards) > 1 {
		s.bodies = make([]func(), len(shards))
		for i, r := range shards {
			s.bodies[i] = func() {
				defer s.wg.Done()
				s.f(r)
			}
		}
	}
	return s
}

// each runs f for every shard.
func (s *shardSet) each(f func(r *runner)) {
	if len(s.shards) == 1 {
		f(s.shards[0])
		return
	}
	s.f = f
	s.wg.Add(len(s.bodies))
	for _, body := range s.bodies {
		go body()
	}
	s.wg.Wait()
}

// assignSlots numbers every flow's NIC records, base flows first and then the
// scenario's injected flows (scen may be nil): a flow's SendSlot is dense
// among the flows its source's shard sends, its RecvSlot among those its
// destination's shard receives. It returns each shard's two counts, the
// sizes of its NIC slabs (so no shard holds a table the size of the run), and
// the count of flows each host sends, indexed by node: the room its NIC's
// send order needs.
func assignSlots(plan *topology.ShardPlan, flows []*packet.Flow, scen *scenario.Planned) (sends, recvs, sentBy []int) {
	sends, recvs = make([]int, plan.Shards), make([]int, plan.Shards)
	sentBy = make([]int, len(plan.Assign))
	assign := func(f *packet.Flow) {
		src, dst := plan.Assign[f.Src], plan.Assign[f.Dst]
		f.SendSlot, f.RecvSlot = int32(sends[src]), int32(recvs[dst])
		sends[src]++
		recvs[dst]++
		sentBy[f.Src]++
	}
	for _, f := range flows {
		assign(f)
	}
	if scen != nil {
		for f := range scen.Flows() {
			assign(f)
		}
	}
	return sends, recvs, sentBy
}

// reserveFCTs sizes the run's FCT collectors for the flows it offers, base
// and injected: each one but a long-lived flow completes into one of them at
// most once.
func reserveFCTs(res *Result, flows []*packet.Flow, scen *scenario.Planned) {
	offered := func(yield func(*packet.Flow) bool) {
		for _, f := range flows {
			if !yield(f) {
				return
			}
		}
		if scen != nil {
			for f := range scen.Flows() {
				if !yield(f) {
					return
				}
			}
		}
	}
	sizes := func(incast bool) iter.Seq[units.Bytes] {
		return func(yield func(units.Bytes) bool) {
			for f := range offered {
				if !f.LongLived && f.IsIncast == incast && !yield(f.Size) {
					return
				}
			}
		}
	}
	res.FCT.Reserve(sizes(false))
	res.FCTIncast.Reserve(sizes(true))
}

// runSharded executes the simulation on plan.Shards shards, one or more.
func runSharded(opts Options, plan *topology.ShardPlan, flows []*packet.Flow) (*Result, error) {
	S := plan.Shards
	horizon := opts.Duration + opts.Drain

	// ec profiles the execution machinery. It is observational only — it
	// reads wall clocks and engine counters, never the simulation state.
	ec := execstats.NewCollector(S)

	// Scenario: compile first, so the injected flows exist when every flow
	// gets its slots, and leave the events themselves to the coordinator's
	// barriers.
	var scen *scenario.Planned
	var scenM *scenario.Metrics
	if opts.Scenario != nil {
		pl, err := scenario.Plan(opts.Scenario, scenarioParams(&opts, flows, horizon))
		if err != nil {
			return nil, err
		}
		scen, scenM = pl, pl.Metrics()
	}
	sends, recvs, sentBy := assignSlots(plan, flows, scen)

	// The coordinator owns the Result: it samples the shared registry at tick
	// barriers, merges the two streams into it and the caller's ring after
	// every barrier step, and collects from it at the end.
	res := newResult(&opts)
	reserveFCTs(res, flows, scen)
	fcts := stream[fctRec]{emit: func(c *fctRec) { c.record(res, scenM) }}
	trace := stream[telemetry.Event]{emit: func(ev *telemetry.Event) { opts.Recorder.Record(*ev) }}

	// Per-shard runners build only the devices their shard owns, into the one
	// registry they share with the coordinator. Every device derives its seed
	// and parameters from the options and its own node (a flow its window
	// from its own path) and draws packets from its shard's pool, so
	// construction is independent of the partition. A shard's NICs share
	// slabs sized to the flows the shard sources and sinks. A traced run
	// gives each shard a keyed recorder before any device captures it.
	// Each shard builds on its own goroutine; after the join every shard
	// wires its links, which reach into the devices other shards built, and
	// schedules its flows, again on its own goroutine.
	reg := newRegistry(opts.Topo)
	shards := make([]*runner, S)
	for i := range shards {
		r := newRunner(opts, reg)
		r.plan, r.shardID = plan, i
		r.sends, r.recvs, r.sentBy = sends[i], recvs[i], sentBy
		fcts.add(&r.fcts)
		if opts.Recorder != nil {
			sr := &shardRecorder{sched: r.sched}
			r.rec = sr
			trace.add(&sr.evs)
		}
		shards[i] = r
	}
	set := newShardSet(shards)
	set.each(func(r *runner) { r.buildDevices() })

	// One boundary queue per directed shard pair, shared by all the pair's
	// cross-shard links. The order a drain injects deliveries in does not
	// matter: each carries its own unique key.
	bounds := make([][]netsim.Boundary, S)
	for i := range bounds {
		bounds[i] = make([]netsim.Boundary, S) // [i][i] stays unused
	}
	set.each(func(r *runner) {
		r.wireLinks(shards, bounds[r.shardID])
		r.scheduleFlows(flows)
	})
	reg.buildLinkClasses()

	// Scenario flows are scheduled per owning shard under their keys, after
	// the base flows. The events' trace records go to the coordinator's
	// keyed recorder.
	var scenRec telemetry.Recorder // stays nil, not a nil pointer, when untraced
	var coordRec *shardRecorder
	if scen != nil {
		for _, r := range shards {
			scen.ScheduleFlows(r.sched, r.owned, r.startInjected)
		}
		if opts.Recorder != nil {
			coordRec = &shardRecorder{}
			scenRec = coordRec
			trace.add(&coordRec.evs)
		}
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
	// Ticks fall at every multiple of delta up to the horizon, and each adds
	// one sample per switch to both tick distributions.
	ticked := int(horizon/delta) * len(sws)
	res.BufferOccupancy.Reserve(ticked)
	res.OccupiedQueues.Reserve(ticked)
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

	// The shards' work at each barrier step is one of two closures, built
	// once: run below the barrier instant until, or up to the horizon. The
	// coordinator sets until between steps, and step to the closure the next
	// runAll runs; the shardSet join is the happens-before edge both ways, so
	// no step allocates.
	var until units.Time
	runBefore := func(r *runner) { r.sched.RunBefore(until) }
	var step func(r *runner)
	// Each shard goroutine writes only its own shard's slot of ec; the join
	// is the happens-before edge for the reader.
	timed := func(r *runner) {
		t0 := time.Now()
		step(r)
		ec.ShardBusy(r.shardID, time.Since(t0))
	}
	runAll := func(f func(r *runner)) {
		step = f
		set.each(timed)
	}
	drainAll := func() {
		t0 := time.Now()
		drained := 0
		for to := 0; to < S; to++ {
			for from := 0; from < S; from++ {
				if from != to {
					drained += bounds[from][to].DrainInto(shards[to].sched)
				}
			}
		}
		ec.Barrier(time.Since(t0), drained)
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
		until = b
		runAll(runBefore)
		// Barrier: the join above is the happens-before edge that lets the
		// coordinator drain the queues without atomics.
		drainAll()

		// The coordinator's actions at b are the Coordinator's, the lowest
		// owner, so they order before every event at b, and the window has
		// run everything before them: the tick samples first, then the
		// scenario events apply, in spec order.
		if b == nextTick {
			sampleTick(res, sws, series)
			ticks++
			nextTick += delta
		}
		if evIdx < len(evTimes) && evTimes[evIdx] == b {
			k := reg.act(b)
			if coordRec != nil {
				coordRec.key = k
			}
			coordExec += uint64(scen.Apply(b, reg, scenRec))
			evIdx++
		}
		fcts.merge()
		trace.merge()
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
	fcts.merge()
	trace.merge()
	ec.EndWindow(executedEmu())

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
	// the engines themselves, and what the devices hold from the devices.
	// Boundary totals sum each shard's *outbound* queues, so per-shard
	// counters add up to run totals exactly once. Then the run checks its
	// books against the profile.
	want := books{completed: uint64(res.FlowsCompleted + res.FCTIncast.Count())}
	for _, f := range flows {
		if f.StartTime <= horizon {
			want.started++
		}
	}
	if opts.Scheme != SchemeIdealFQ {
		want.buffer = opts.SwitchBuffer
	}
	rs := ec.Finish()
	for i, r := range shards {
		ss := &rs.Shards[i]
		ss.Events = r.sched.Executed
		ss.HeapHighWater = r.sched.HeapHighWater()
		ss.PoolAllocated = r.pool.Allocated()
		ss.PoolRecycled = r.pool.Recycled()
		ss.PoolFree = r.pool.Free()
		ss.FiltersCarved = r.filters.Carved()
		ss.FiltersFree = r.filters.Free()
		if err := r.deviceCounts(ss); err != nil {
			return nil, err
		}
		for to := range bounds[i] {
			st := bounds[i][to].Stats()
			ss.Boundary.Merge(st.Pushes, st.MaxDrain)
		}
		want.started += uint64(r.injectedFlows)
		want.completed += uint64(r.longLivedDone)
	}
	rs.TotalEvents = res.Events
	rs.CoordEvents = ticks + coordExec
	res.Exec = rs
	if err := want.balance(rs.Shards); err != nil {
		return nil, err
	}
	return res, nil
}

// books is what a run's devices must account for at its end beyond each
// switch's own Audit: the flows its NICs began (the base flows starting by
// the horizon and the scenario flows injected) and finished (the completions
// merged into the Result, and the long-lived ones it does not record), and
// the shared buffer no switch may exceed (0: unbounded).
type books struct {
	started, completed uint64
	buffer             units.Bytes
}

// balance checks the run's books against its shards' profiles, summed over
// the shards (a filter or a flow may end on another shard than its maker's).
// With each switch's Audit, which deviceCounts returns, these are the terms
// every run checks at its end: pause filters carved = free + installed + in
// flight; flows started and completed as b says; no switch's buffer peak
// above b.buffer. The error names the first term that does not balance.
func (b books) balance(shards []execstats.ShardStats) error {
	var carved, started, completed uint64
	var placed int
	var peak int64
	for _, ss := range shards {
		carved += ss.FiltersCarved
		placed += ss.FiltersFree + ss.FiltersHeld + ss.FiltersInFlight
		started, completed = started+ss.FlowsStarted, completed+ss.FlowsCompleted
		peak = max(peak, ss.BufferPeak)
	}
	switch {
	case carved != uint64(placed):
		return fmt.Errorf("sim: %d pause filters carved, but %d are free, installed or in flight", carved, placed)
	case started != b.started:
		return fmt.Errorf("sim: the NICs started %d flows, the run offered %d", started, b.started)
	case completed != b.completed:
		return fmt.Errorf("sim: the NICs completed %d flows, the run recorded %d", completed, b.completed)
	case b.buffer > 0 && peak > int64(b.buffer):
		return fmt.Errorf("sim: a switch held %d B of its %d B shared buffer", peak, b.buffer)
	}
	return nil
}
