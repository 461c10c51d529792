// Package sim composes the substrates — topology, switches, NICs, congestion
// control, workload — into runnable simulations of the paper's schemes, and
// gathers the measurements its figures report.
package sim

import (
	"fmt"
	"strings"

	"bfc/internal/bloom"
	"bfc/internal/flowtable"
	"bfc/internal/scenario"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// Scheme selects which congestion-control architecture the network runs.
type Scheme int

const (
	// SchemeBFC is the paper's contribution: per-hop per-flow backpressure
	// with dynamic queue assignment (§3).
	SchemeBFC Scheme = iota
	// SchemeBFCStatic is the straw proposal BFC-VFID (§3.2): identical to BFC
	// but with static hashed queue assignment.
	SchemeBFCStatic
	// SchemeDCQCN is baseline DCQCN: ECN-driven end-to-end rate control,
	// single FIFO per port, PFC as a backstop.
	SchemeDCQCN
	// SchemeDCQCNWin is DCQCN with a one-BDP cap on bytes in flight.
	SchemeDCQCNWin
	// SchemeDCQCNWinSFQ adds stochastic fair queueing at the switches.
	SchemeDCQCNWinSFQ
	// SchemeHPCC is HPCC: INT-driven end-to-end window control.
	SchemeHPCC
	// SchemeIdealFQ is the unrealizable reference: per-flow fair queueing
	// with infinite buffers and a one-BDP window cap.
	SchemeIdealFQ
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeBFC:
		return "BFC"
	case SchemeBFCStatic:
		return "BFC-VFID"
	case SchemeDCQCN:
		return "DCQCN"
	case SchemeDCQCNWin:
		return "DCQCN+Win"
	case SchemeDCQCNWinSFQ:
		return "DCQCN+Win+SFQ"
	case SchemeHPCC:
		return "HPCC"
	case SchemeIdealFQ:
		return "Ideal-FQ"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// AllSchemes lists every scheme compared in Fig 5.
func AllSchemes() []Scheme {
	return []Scheme{SchemeBFC, SchemeIdealFQ, SchemeDCQCN, SchemeDCQCNWin, SchemeHPCC, SchemeDCQCNWinSFQ}
}

// SchemeByName resolves a scheme label as printed by Scheme.String
// (case-insensitively), covering all schemes including the Fig 7 straw
// proposal BFC-VFID.
func SchemeByName(name string) (Scheme, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, s := range append(AllSchemes(), SchemeBFCStatic) {
		if strings.ToLower(s.String()) == want {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown scheme %q", name)
}

// ParseSchemes resolves a comma-separated list of scheme labels; "all" (or
// the empty string) selects AllSchemes. It is the shared parser behind the
// CLI -schemes flags and the service tier's suite wire form.
func ParseSchemes(arg string) ([]Scheme, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" || strings.EqualFold(arg, "all") {
		return AllSchemes(), nil
	}
	var out []Scheme
	seen := map[Scheme]bool{}
	for _, name := range strings.Split(arg, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		s, err := SchemeByName(name)
		if err != nil {
			return nil, err
		}
		if seen[s] {
			return nil, fmt.Errorf("sim: scheme %q listed twice", s)
		}
		seen[s] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sim: no schemes selected")
	}
	return out, nil
}

// MTU is the maximum data payload per packet (1000 B, §4.1). Every run uses
// it; it is not an option.
const MTU units.Bytes = 1000

// Options configures one simulation run. DefaultOptions is the one place that
// sets a default: start from it and override what the run varies. Validate
// fills nothing in, so a zero resource is an error, not a request for the
// default.
type Options struct {
	// Scheme selects the congestion-control architecture.
	Scheme Scheme
	// Topo is the network topology.
	Topo *topology.Topology

	// SwitchBuffer is the shared buffer per switch (12 MB, §4.1).
	SwitchBuffer units.Bytes
	// NumQueues is the number of physical queues per port (32; Fig 12 sweeps
	// it). Single-FIFO schemes ignore it.
	NumQueues int
	// NumVFIDs is the BFC VFID space (16K; Fig 13 sweeps it).
	NumVFIDs int
	// BloomBytes is the BFC pause-frame bloom filter size (128 B; Fig 14).
	BloomBytes int
	// HighPriorityQueue enables BFC's first-packet queue (§3.7; Fig 11).
	HighPriorityQueue bool
	// ResumeAll disables BFC's resume throttling (Fig 10's BFC-BufferOpt).
	ResumeAll bool
	// DisablePFC removes the PFC backstop (used by Fig 2).
	DisablePFC bool
	// IdealFQQueues is the number of per-port queues for Ideal-FQ (1000 in
	// the paper). Setting it to a small value with SchemeIdealFQ gives the
	// Fig 7 SFQ+InfBuffer baseline: static hashing, infinite buffer.
	IdealFQQueues int

	// Scenario, when non-nil, injects deterministic mid-run events — link
	// failure/recovery/degradation, incast storms, workload shifts — and adds
	// per-scenario metrics to the Result. The run's topology is mutated by
	// link events, so a scenario run must build its own Topology (do not
	// share one *Topology across scenario runs).
	Scenario *scenario.Spec

	// Duration is the workload horizon; the run continues for Drain after it
	// so in-flight flows can finish.
	Duration units.Time
	Drain    units.Time

	// Recorder, when non-nil, receives the run's flight-recorder events (flow
	// start/finish, drops, PFC and BFC pause transitions, queue assignments,
	// scenario events). The coordinator feeds it at the end of every barrier
	// step, every shard's events merged in key order, so the ring's events,
	// Seen and Overwritten are the same at every shard count. Recording is
	// purely observational: it never schedules events or consumes RNG, so
	// the Result is byte-identical with or without a recorder, and so is a
	// harness Record built from it: no job's Extract or figure reads the ring
	// (experiments' TestRecordsIgnoreObservers holds every figure to that).
	// Nil disables recording at zero cost.
	Recorder *telemetry.Ring
	// SampleSeries attaches time series (per-switch buffer occupancy,
	// per-link-class pause fractions, executed events per tick) to
	// Result.Telemetry, one sample per statistics tick (period
	// bufferSampleInterval) so no extra simulator events are created. Off by
	// default; the Telemetry field is omitted from the Result JSON when off,
	// keeping golden digests unchanged.
	SampleSeries bool

	// Shards sets how many shards the engine (a conservative parallel
	// discrete-event coordinator) runs. 0 or 1 runs one shard — the serial
	// case, on the caller's goroutine; n >= 2 runs n shards (clamped to the
	// topology's host count); a negative value picks min(hosts, GOMAXPROCS)
	// automatically. Results are byte-identical at every shard count for every
	// scheme — the engine cuts each tier of the fabric into contiguous runs of
	// nodes (topology.PlanShards) and synchronizes shards at
	// conservative-lookahead barriers that reproduce the one-shard event order
	// exactly, so the partition decides only the speed. Scenario runs
	// shard too (compiled events apply at coordinator barriers), and at every
	// shard count the flow completions and flight-recorder events each shard
	// buffers merge in key order at every barrier. A request that cannot
	// shard runs on one shard, reported in Result.Sharding rather than
	// silently.
	Shards int
	// ExecStats is ignored: every run sets Result.Exec. It stays only because
	// the benchmark module writes it (ROADMAP item 17).
	ExecStats bool

	// StreamingStats selects constant-memory streaming statistics: the FCT
	// collectors and the buffer/queue-occupancy distributions become
	// fixed-capacity deterministic sketches (see stats.NewStreamingDistribution),
	// so the run's statistics footprint is independent of flow count and
	// sample count. Exact and percentile queries: Count/Mean/Max stay exact,
	// interior percentiles carry a ~1/sqrt(4096) rank error. Off by default —
	// exact mode keeps every golden digest byte-identical.
	StreamingStats bool

	// Seed drives the switches' random ECN marking, each switch's source
	// seeded Seed + node ID. Hashed choices (ECMP, queues, VFIDs, the BFC
	// fallback) depend on the flow and the node alone.
	Seed int64
}

// DefaultOptions returns the paper's configuration for a given scheme and
// topology. It is the only code that writes a default.
func DefaultOptions(scheme Scheme, topo *topology.Topology) Options {
	return Options{
		Scheme:            scheme,
		Topo:              topo,
		SwitchBuffer:      12 * units.MB,
		NumQueues:         32,
		NumVFIDs:          flowtable.DefaultNumVFIDs,
		BloomBytes:        bloom.DefaultSizeBytes,
		HighPriorityQueue: true,
		IdealFQQueues:     1000,
		Duration:          2 * units.Millisecond,
		Drain:             2 * units.Millisecond,
		Seed:              1,
	}
}

// bufferSampleInterval is the period of the run's statistics tick, which
// samples buffer occupancy (and, with Options.SampleSeries, the series). It
// scales with topology size: every switch contributes one sample per tick, so
// a fixed 10 us cadence on a fabric with hundreds of switches floods the
// occupancy distributions (and, in exact mode, memory) with samples. Fabrics
// of up to 32 switches — every two-tier topology the paper evaluates — keep
// the paper's 10 us period; larger fabrics stretch the period proportionally,
// keeping samples-per-tick x ticks roughly constant.
func bufferSampleInterval(topo *topology.Topology) units.Time {
	const base = 10 * units.Microsecond
	switches := topo.NumNodes() - len(topo.Hosts())
	if switches <= 32 {
		return base
	}
	return base * units.Time((switches+31)/32)
}

// Validate reports option errors. It only checks: it assigns no field, and a
// zero Drain, NumVFIDs, BloomBytes or IdealFQQueues is rejected like any
// other non-positive resource, and so is a bloom filter larger than a pause
// frame holds.
func (o *Options) Validate() error {
	if o.Topo == nil {
		return fmt.Errorf("sim: nil topology")
	}
	if o.SwitchBuffer <= 0 && o.Scheme != SchemeIdealFQ {
		return fmt.Errorf("sim: SwitchBuffer must be positive")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"NumQueues", int64(o.NumQueues)},
		{"NumVFIDs", int64(o.NumVFIDs)},
		{"BloomBytes", int64(o.BloomBytes)},
		{"IdealFQQueues", int64(o.IdealFQQueues)},
		{"Duration", int64(o.Duration)},
		{"Drain", int64(o.Drain)},
	} {
		if f.v <= 0 {
			return fmt.Errorf("sim: %s must be positive", f.name)
		}
	}
	if o.BloomBytes > bloom.MaxSizeBytes {
		return fmt.Errorf("sim: BloomBytes must be at most %d", bloom.MaxSizeBytes)
	}
	if o.Scenario != nil {
		return o.Scenario.Validate()
	}
	return nil
}
