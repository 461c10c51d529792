// Package execstats is a wall-clock execution profiler for the simulation
// engine itself. Where the flight recorder (internal/telemetry) observes
// *sim-time* behavior — packets, queues, pauses — execstats observes the
// *machinery*: how many events each shard dispatched, how deep the scheduler
// heap grew, how long shards parked at lookahead barriers, and how much
// traffic crossed the boundary queues between shards.
//
// Every run carries its profile (Result.Exec): the coordinator builds one
// Collector per run, and the run checks its books against the per-shard
// counts the profile reports (sim's seal). The profile is strictly
// observational: it never schedules events, never consumes RNG, and
// Result.Exec is excluded from ResultDigest, so printing or exporting it
// leaves golden digests byte-identical.
//
// Counters split into two families. Partition-independent counters
// (TotalEvents) are byte-identical across -shards values. Partition-dependent
// counters (per-shard heap high-water, pool allocation, boundary traffic)
// describe the chosen partition; they are still deterministic for a fixed
// shard count, and their per-shard values sum consistently.
package execstats

import "time"

// DefaultMaxSpans bounds the per-window span log kept for the wall-clock
// trace. Aggregate counters keep accumulating past the cap; only the
// per-window detail is dropped (counted in RunStats.TruncatedSpans).
const DefaultMaxSpans = 1 << 14

// spanPage is how many windows' per-shard busy times one allocation holds.
const spanPage = 256

// BoundaryTotals aggregates cross-shard boundary-queue traffic for one
// producing shard (over its outbound queues).
type BoundaryTotals struct {
	Pushes   uint64 // messages pushed into outbound queues
	MaxDrain int    // largest single drain batch, i.e. the occupancy high-water
	// Spills is always 0: nothing writes it since the queue became a slice.
	// bench/simwork.go (frozen) still reads it; the next [benchmark] issue
	// removes the field together with the netsim.boundary_spills* rows.
	Spills uint64
}

// Merge folds one queue's counters into the totals.
func (b *BoundaryTotals) Merge(pushes uint64, maxDrain int) {
	b.Pushes += pushes
	if maxDrain > b.MaxDrain {
		b.MaxDrain = maxDrain
	}
}

// ShardStats holds one shard's execution profile. A one-shard run has exactly
// one entry with no boundary activity.
type ShardStats struct {
	Shard         int
	Events        uint64 // events dispatched by this shard's scheduler
	HeapHighWater int    // max index records pending at once across the event queue's tiers (cur, ring, far)
	PoolAllocated uint64 // distinct packets ever allocated by this shard's pool
	PoolRecycled  uint64 // free-list reuses
	PoolFree      int    // packets in this shard's free-list at the end of the run
	BusyNS        int64  // wall-clock ns spent executing events
	BarrierWaitNS int64  // wall-clock ns parked while other shards finished a window

	// The BFC pause filters: carved by this shard's filter pool, in its free
	// list, installed in its devices' upstream states and in frames on the
	// links it sends on, at the end of the run.
	FiltersCarved   uint64
	FiltersFree     int
	FiltersHeld     int
	FiltersInFlight int

	// What this shard's switches hold at the end of the run (switchsim.Audit,
	// summed): data packets queued and their bytes, BFC flow-table entries
	// and VFIDs paused in their ingress filters. A run whose flows all
	// completed ends with all four 0. BufferPeak is the most shared buffer
	// one of its switches ever held at once.
	QueuedPackets int
	QueuedBytes   int64
	FlowEntries   int
	PausedVFIDs   int
	BufferPeak    int64

	// The flows this shard's NICs began sending and finished receiving.
	FlowsStarted   uint64
	FlowsCompleted uint64

	// Boundary sums this shard's *outbound* queues (messages it produced for
	// other shards), so per-shard values sum to the run-wide totals exactly
	// once.
	Boundary BoundaryTotals
}

// Utilization is the fraction of this shard's window wall-clock spent
// executing rather than waiting at barriers. Below 1.0 on one shard too: its
// wait is the coordinator's work at the barriers (sampling, scenario events).
func (s *ShardStats) Utilization() float64 {
	total := s.BusyNS + s.BarrierWaitNS
	if total <= 0 {
		return 1
	}
	return float64(s.BusyNS) / float64(total)
}

// WindowSpan records one lookahead window for the wall-clock trace: when it
// started (wall offset from run start), how long it lasted, what each shard
// did inside it, and the barrier drain that closed it.
type WindowSpan struct {
	StartNS int64   // wall offset from run start
	WallNS  int64   // full window duration (execute + drain)
	Events  uint64  // events executed during this window (all shards)
	BusyNS  []int64 // per-shard execution ns inside this window
	DrainNS int64   // coordinator time draining boundary queues
	Drained int     // boundary messages delivered at this window's barrier
}

// RunStats is the merged execution profile of one Run call. It rides on
// Result.Exec with `json:"-"`, so it never reaches marshalled artifacts or
// ResultDigest; nothing encodes it, and this package's types carry no json
// tags.
type RunStats struct {
	Shards      []ShardStats
	Windows     uint64 // windows executed: one per barrier plus the closing one
	Barriers    uint64 // barriers: lookahead sync, sampling tick, scenario event and horizon instants
	TotalEvents uint64 // partition-independent: equals Result.Events
	CoordEvents uint64 // events the coordinator emulated on the shards' behalf (ticks, scenario closures); shard Events + CoordEvents = TotalEvents
	WallNS      int64  // total Run wall-clock
	DrainNS     int64  // cumulative coordinator drain time

	Spans          []WindowSpan
	TruncatedSpans uint64 // windows past DefaultMaxSpans (aggregates still counted)
}

// BusyNS sums execution time across shards.
func (r *RunStats) BusyNS() int64 {
	var n int64
	for i := range r.Shards {
		n += r.Shards[i].BusyNS
	}
	return n
}

// BarrierWaitNS sums barrier-wait time across shards.
func (r *RunStats) BarrierWaitNS() int64 {
	var n int64
	for i := range r.Shards {
		n += r.Shards[i].BarrierWaitNS
	}
	return n
}

// Utilization is the run-wide window efficiency: the fraction of shard
// wall-clock spent executing rather than waiting.
func (r *RunStats) Utilization() float64 {
	busy, wait := r.BusyNS(), r.BarrierWaitNS()
	if busy+wait <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+wait)
}

// Collector accumulates wall-clock timings while the sharded coordinator
// runs. It is lock-free by construction: each shard goroutine writes only its
// own slice slot (ShardBusy), and the coordinator reads those slots only
// after the WaitGroup join that ends the window — the join is the
// happens-before edge, exactly the argument the boundary queues already make.
type Collector struct {
	start  time.Time
	shards []shardAcc

	windows  uint64
	barriers uint64
	drainNS  int64

	spans     []WindowSpan
	busyPage  []int64 // the rest of the page the spans' BusyNS are carved from
	truncated uint64

	// in-progress window
	wStart   time.Time
	wBusy0   []int64
	wEvents0 uint64
	wDrainNS int64
	wDrained int
}

type shardAcc struct {
	busyNS int64
	waitNS int64
}

// NewCollector starts a collector for a run with the given shard count.
func NewCollector(shards int) *Collector {
	return &Collector{
		start:  time.Now(),
		shards: make([]shardAcc, shards),
		wBusy0: make([]int64, shards),
	}
}

// BeginWindow marks the start of one lookahead window (one coordinator loop
// iteration). Called from the coordinator only.
func (c *Collector) BeginWindow() {
	c.wStart = time.Now()
	for i := range c.shards {
		c.wBusy0[i] = c.shards[i].busyNS
	}
	c.wDrainNS, c.wDrained = 0, 0
}

// ShardBusy credits wall-clock execution time to one shard. Called from the
// shard's own goroutine; slots are disjoint, and the coordinator reads them
// only after the window's WaitGroup join.
func (c *Collector) ShardBusy(shard int, d time.Duration) {
	c.shards[shard].busyNS += d.Nanoseconds()
}

// Barrier records one boundary-drain barrier: how long the coordinator spent
// draining and how many messages moved.
func (c *Collector) Barrier(drain time.Duration, drained int) {
	c.barriers++
	ns := drain.Nanoseconds()
	c.drainNS += ns
	c.wDrainNS += ns
	c.wDrained += drained
}

// EndWindow closes the current window. events is the cumulative executed
// count at window end (the delta from the previous window is stored). Each
// shard's barrier wait for the window is the window wall minus the busy time
// it accrued inside it. A kept span's per-shard BusyNS is carved from a page
// of spanPage spans' worth, so a run allocates per page, not per window.
func (c *Collector) EndWindow(events uint64) {
	wall := time.Since(c.wStart).Nanoseconds()
	c.windows++
	span := WindowSpan{
		StartNS: c.wStart.Sub(c.start).Nanoseconds(),
		WallNS:  wall,
		Events:  events - c.wEvents0,
		DrainNS: c.wDrainNS,
		Drained: c.wDrained,
	}
	c.wEvents0 = events
	if n := len(c.shards); len(c.spans) < DefaultMaxSpans {
		if len(c.busyPage) < n {
			c.busyPage = make([]int64, spanPage*n)
		}
		span.BusyNS, c.busyPage = c.busyPage[:n:n], c.busyPage[n:]
		c.spans = append(c.spans, span) // shares BusyNS, filled below
	} else {
		c.truncated++
	}
	for i := range c.shards {
		busy := c.shards[i].busyNS - c.wBusy0[i]
		c.shards[i].waitNS += max(wall-busy, 0)
		if span.BusyNS != nil {
			span.BusyNS[i] = busy
		}
	}
}

// Finish seals the collector into a RunStats skeleton: windows, barriers,
// spans, and per-shard busy/wait are filled; the caller fills per-shard
// scheduler/pool/boundary finals and TotalEvents.
func (c *Collector) Finish() *RunStats {
	rs := &RunStats{
		Shards:         make([]ShardStats, len(c.shards)),
		Windows:        c.windows,
		Barriers:       c.barriers,
		WallNS:         time.Since(c.start).Nanoseconds(),
		DrainNS:        c.drainNS,
		Spans:          c.spans,
		TruncatedSpans: c.truncated,
	}
	for i, acc := range c.shards {
		rs.Shards[i] = ShardStats{Shard: i, BusyNS: acc.busyNS, BarrierWaitNS: acc.waitNS}
	}
	return rs
}

// Summary aggregates execution profiles across many runs (harness suites,
// service job streams).
type Summary struct {
	Runs           uint64
	ShardedRuns    uint64
	Events         uint64
	Windows        uint64
	Barriers       uint64
	BusyNS         int64
	BarrierWaitNS  int64
	UtilizationMin float64 // worst per-run utilization seen (1 when no runs)
}

// Add folds one run's profile into the summary. Nil-safe on rs.
func (s *Summary) Add(rs *RunStats) {
	if rs == nil {
		return
	}
	if s.Runs == 0 || rs.Utilization() < s.UtilizationMin {
		s.UtilizationMin = rs.Utilization()
	}
	s.Runs++
	if len(rs.Shards) > 1 {
		s.ShardedRuns++
	}
	s.Events += rs.TotalEvents
	s.Windows += rs.Windows
	s.Barriers += rs.Barriers
	s.BusyNS += rs.BusyNS()
	s.BarrierWaitNS += rs.BarrierWaitNS()
}

// Utilization is the aggregate busy/(busy+wait) across all added runs.
func (s *Summary) Utilization() float64 {
	if s.BusyNS+s.BarrierWaitNS <= 0 {
		return 1
	}
	return float64(s.BusyNS) / float64(s.BusyNS+s.BarrierWaitNS)
}
