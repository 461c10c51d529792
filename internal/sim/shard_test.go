package sim

// Sharded-execution parity tests. The sharded engine's contract is not
// "statistically equivalent" but byte-identical: for every scheme and every
// shard count, the marshalled Result must match the single-threaded engine
// exactly. The golden sweep pins that contract against the recorded digests
// (which predate sharding and may not be regenerated); the fat-tree tests
// exercise real multi-shard partitions, including shard counts that split
// pods and racks and the auto (-1) setting.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
	"bfc/internal/workload"
)

// runWithShards runs one scheme on a fresh copy of the flows with the given
// shard count and returns the marshalled Result.
func runWithShards(t testing.TB, opts Options, flows []*packet.Flow, shards int) []byte {
	t.Helper()
	opts.Shards = shards
	res, err := Run(opts, cloneFlows(flows))
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("shards=%d: marshal: %v", shards, err)
	}
	return blob
}

// cloneFlows copies every flow, so a run cannot change the caller's.
func cloneFlows(flows []*packet.Flow) []*packet.Flow {
	copies := make([]*packet.Flow, len(flows))
	for i, f := range flows {
		c := *f
		copies[i] = &c
	}
	return copies
}

func goldenOpts(scheme Scheme, topo *topology.Topology) Options {
	opts := DefaultOptions(scheme, topo)
	opts.Duration = 150 * units.Microsecond
	opts.Drain = 800 * units.Microsecond
	opts.Seed = 7
	return opts
}

// TestGoldenShardSweep runs the golden configuration at several shard counts
// (including counts above the ToR count, which split racks) and requires the
// exact digests recorded in testdata/golden.json — the same file the serial
// golden test pins. Any divergence between the engines shows up as a digest
// mismatch.
func TestGoldenShardSweep(t *testing.T) {
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	topo := smallClos()
	flows := goldenFlows(t, topo)
	schemes := []Scheme{
		SchemeBFC, SchemeBFCStatic, SchemeDCQCN,
		SchemeDCQCNWinSFQ, SchemeHPCC, SchemeIdealFQ,
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, sc := range schemes {
			digest := goldenShardDigest(t, sc, topo, flows, shards)
			if digest != want[sc.String()] {
				t.Errorf("shards=%d %s: digest %s, golden %s — sharded output diverged",
					shards, sc, digest, want[sc.String()])
			}
		}
	}
}

func goldenShardDigest(t testing.TB, scheme Scheme, topo *topology.Topology, flows []*packet.Flow, shards int) string {
	t.Helper()
	blob := runWithShards(t, goldenOpts(scheme, topo), flows, shards)
	return digestOf(blob)
}

func digestOf(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// fatTreeFlows generates a deterministic workload over a multi-pod fat-tree.
func fatTreeFlows(t testing.TB, topo *topology.Topology, duration units.Time) []*packet.Flow {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		Hosts:    topo.Hosts(),
		CDF:      workload.Google(),
		Load:     0.5,
		HostRate: topo.HostRate(topo.Hosts()[0]),
		Duration: duration,
		Seed:     11,
		Incast: workload.IncastConfig{
			Enabled:       true,
			FanIn:         6,
			AggregateSize: 128 * units.KB,
			LoadFraction:  0.05,
		},
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return tr.Flows
}

// TestShardedParityFatTree compares serial and sharded runs byte-for-byte on a
// four-pod fat-tree at 2 to 4 shards, at 8 (more shards than pods, so racks
// split) and at -1, which resolves to min(hosts, GOMAXPROCS) — and on the
// smallest (two-pod, two-core) fat-tree at two shards, where every shard
// holds a pod and a core switch, so every directed shard pair owns a live
// boundary queue and every shard fills registry slots next to another
// shard's (the case `go test -race` is pointed at).
func TestShardedParityFatTree(t *testing.T) {
	for _, tc := range []struct {
		hosts  int
		shards []int
	}{
		{hosts: 32, shards: []int{2, 3, 4, 8, -1}},
		{hosts: 16, shards: []int{2}},
	} {
		topo := topology.NewFatTree(topology.FatTreeForHosts(tc.hosts, 100*units.Gbps, units.Microsecond))
		flows := fatTreeFlows(t, topo, 60*units.Microsecond)
		for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN, SchemeHPCC} {
			opts := DefaultOptions(sc, topo)
			opts.Duration = 60 * units.Microsecond
			opts.Drain = 400 * units.Microsecond
			opts.Seed = 11
			serial := runWithShards(t, opts, flows, 0)
			for _, shards := range tc.shards {
				sharded := runWithShards(t, opts, flows, shards)
				if !bytes.Equal(serial, sharded) {
					t.Errorf("%d hosts %s shards=%d: sharded result differs from serial (%d vs %d bytes)",
						tc.hosts, sc, shards, len(serial), len(sharded))
				}
			}
		}
	}
}

// TestShardedParityCrossDC runs Fig 9's fabric, two data centers joined at
// their gateways by the 200 us link, with its 20 % inter-DC flows, and
// requires the Result at 2 and 4 shards to equal the serial one byte for
// byte. Two shards cut only the gateway link (a 200 us lookahead); four also
// cut each data center's racks from its spines. Switches on the gateway link
// size their windows from a 400 us hop RTT and every other switch from a
// 2 us one, so both kinds run side by side in one sharded run.
func TestShardedParityCrossDC(t *testing.T) {
	x := topology.NewCrossDC(topology.ClosConfig{NumToR: 2, NumSpine: 2, HostsPerToR: 4, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	dcs := &workload.InterDCConfig{HostsDC1: x.HostsDC1, HostsDC2: x.HostsDC2}
	tr, err := workload.Generate(workload.Config{
		Hosts:    x.Hosts(),
		CDF:      workload.FBHadoop(),
		Load:     0.65,
		HostRate: x.HostRate(x.Hosts()[0]),
		Duration: 100 * units.Microsecond,
		Seed:     9,
		InterDC:  dcs,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := 0
	for _, f := range tr.Flows {
		if dcs.IsInterDC(f) {
			inter++
		}
	}
	if inter == 0 {
		t.Fatalf("none of %d flows crosses data centers", len(tr.Flows))
	}
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
		opts := DefaultOptions(sc, x.Topology)
		opts.Duration = 100 * units.Microsecond
		opts.Drain = 3 * units.Millisecond
		opts.Seed = 9
		serialRes, serial := runShardedResult(t, opts, tr.Flows, 1)
		if serialRes.FlowsCompleted != len(tr.Flows) {
			t.Fatalf("%s: %d of %d flows completed (%d inter-DC)", sc, serialRes.FlowsCompleted, len(tr.Flows), inter)
		}
		for _, shards := range []int{2, 4} {
			res, sharded := runShardedResult(t, opts, tr.Flows, shards)
			if res.Sharding.Used != shards {
				t.Fatalf("%s: asked for %d shards, ran on %d (%s)", sc, shards, res.Sharding.Used, res.Sharding.Fallback)
			}
			if !bytes.Equal(serial, sharded) {
				t.Errorf("%s shards=%d: sharded result differs from serial (digest %s vs %s)", sc, shards, digestOf(serial), digestOf(sharded))
			}
		}
	}
}

// TestShardAutoOnOneCPU pins the reason an auto request (-1) reports on one
// CPU: the 64-host fat-tree partitions, so the cause of the one-shard run is
// the CPU count, not the topology.
func TestShardAutoOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	topo := topology.NewFatTree(topology.FatTreeForHosts(64, 100*units.Gbps, units.Microsecond))
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Shards = -1
	plan, why := shardPlanFor(&opts)
	info := ShardInfo{Requested: opts.Shards, Used: plan.Shards, Fallback: why}
	if got, want := info.Describe(), "forced-serial(one CPU: GOMAXPROCS=1)"; plan.Shards != 1 || got != want {
		t.Errorf("auto on one CPU: %d shards, %q; want 1 shard, %q", plan.Shards, got, want)
	}
}

// TestShardedTelemetryParity requires the telemetry time series — sampled at
// coordinator barriers in the sharded engine, by the ticker in the serial one
// — to be byte-identical too.
func TestShardedTelemetryParity(t *testing.T) {
	topo := topology.NewFatTree(topology.FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	flows := fatTreeFlows(t, topo, 60*units.Microsecond)
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 60 * units.Microsecond
	opts.Drain = 400 * units.Microsecond
	opts.Seed = 11
	opts.SampleSeries = true

	type run struct {
		blob []byte
		tele []byte
	}
	runOne := func(shards int) run {
		copies := make([]*packet.Flow, len(flows))
		for i, f := range flows {
			c := *f
			copies[i] = &c
		}
		o := opts
		o.Shards = shards
		res, err := Run(o, copies)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Telemetry == nil {
			t.Fatalf("shards=%d: no telemetry bundle", shards)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		tele, err := json.Marshal(res.Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		return run{blob: blob, tele: tele}
	}

	serial := runOne(0)
	for _, shards := range []int{2, 4} {
		sharded := runOne(shards)
		if !bytes.Equal(serial.tele, sharded.tele) {
			t.Errorf("shards=%d: telemetry series diverged from serial", shards)
		}
		if !bytes.Equal(serial.blob, sharded.blob) {
			t.Errorf("shards=%d: full result diverged from serial", shards)
		}
	}
}

// runShardedResult runs like runWithShards but also returns the Result, so
// tests can assert on Sharding alongside the marshalled bytes.
func runShardedResult(t testing.TB, opts Options, flows []*packet.Flow, shards int) (*Result, []byte) {
	t.Helper()
	opts.Shards = shards
	res, err := Run(opts, cloneFlows(flows))
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("shards=%d: marshal: %v", shards, err)
	}
	return res, blob
}

// TestShardedScenarioGolden pins the sharded scenario path against the
// recorded scenario goldens: the coordinator applies compiled events at
// lookahead barriers and each shard starts the injected flows it owns, and
// the result must still match the serial digests byte-for-byte. The Sharding
// report guards against the run silently falling back to serial.
func TestShardedScenarioGolden(t *testing.T) {
	blob, err := os.ReadFile(goldenScenarioPath)
	if err != nil {
		t.Fatalf("missing scenario golden file: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	topo := smallClos()
	flows := goldenFlows(t, topo)
	for name, spec := range goldenScenarios() {
		for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
			for _, shards := range []int{2, 4} {
				opts := goldenOpts(sc, topo)
				opts.Scenario = spec
				res, blob := runShardedResult(t, opts, flows, shards)
				if res.Sharding.Used < 2 {
					t.Fatalf("%s/%s shards=%d: ran serially (fallback %q) — scenario sharding is broken",
						name, sc, shards, res.Sharding.Fallback)
				}
				key := name + "/" + sc.String()
				if got := digestOf(blob); got != want[key] {
					t.Errorf("%s shards=%d: digest %s, golden %s — sharded scenario output diverged",
						key, shards, got, want[key])
				}
			}
		}
	}
}

// fatTreeScenario exercises every coordinator barrier type on a multi-pod
// fabric: a link flap on a pod-internal link (edge-agg), a degrade on a
// core uplink, and an injected incast burst landing between them.
func fatTreeScenario() *scenario.Spec {
	return &scenario.Spec{
		Name: "fat-tree-flap",
		Seed: 9,
		Events: []scenario.Event{
			{At: 20 * units.Microsecond, Kind: scenario.LinkDown,
				Link: &scenario.LinkRef{A: "pod0-edge0", B: "pod0-agg0"}},
			{At: 30 * units.Microsecond, Kind: scenario.Incast,
				Incast: &scenario.IncastSpec{FanIn: 6, AggregateSize: 128 * units.KB}},
			{At: 70 * units.Microsecond, Kind: scenario.LinkUp,
				Link: &scenario.LinkRef{A: "pod0-edge0", B: "pod0-agg0"}},
		},
	}
}

// TestShardedScenarioParityFatTree compares serial and sharded scenario runs
// byte-for-byte on a four-pod fat-tree, where the failed link and the incast
// victim sit inside one shard while reroutes and burst senders span all of
// them.
func TestShardedScenarioParityFatTree(t *testing.T) {
	topo := topology.NewFatTree(topology.FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	flows := fatTreeFlows(t, topo, 60*units.Microsecond)
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
		opts := DefaultOptions(sc, topo)
		opts.Duration = 60 * units.Microsecond
		opts.Drain = 400 * units.Microsecond
		opts.Seed = 11
		opts.Scenario = fatTreeScenario()
		serial := runWithShards(t, opts, flows, 0)
		for _, shards := range []int{2, 4, -1} {
			sharded := runWithShards(t, opts, flows, shards)
			if !bytes.Equal(serial, sharded) {
				t.Errorf("%s shards=%d: sharded scenario result differs from serial (%d vs %d bytes)",
					sc, shards, len(serial), len(sharded))
			}
		}
	}
}

// requireTraceParity runs opts serially and at each shard count, traced
// into a default-capacity ring and into a 256-event ring that wraps, and
// requires every sharded run to partition and to match the serial run's
// Result bytes, its retained events and its Seen and Overwritten counts
// exactly. It returns the serial default-capacity ring.
func requireTraceParity(t *testing.T, opts Options, flows []*packet.Flow, shards ...int) *telemetry.Ring {
	t.Helper()
	tracedRun := func(shards, capacity int) (*Result, []byte, *telemetry.Ring) {
		ring := telemetry.NewRing(capacity)
		o := opts
		o.Recorder = ring
		res, blob := runShardedResult(t, o, flows, shards)
		return res, blob, ring
	}
	var whole *telemetry.Ring
	for _, capacity := range []int{telemetry.DefaultRingCapacity, 256} {
		_, serialBlob, serialRing := tracedRun(0, capacity)
		if serialRing.Seen() == 0 {
			t.Fatal("serial run recorded no events — trace parity test is vacuous")
		}
		if capacity == 256 && serialRing.Overwritten() == 0 {
			t.Fatalf("a %d-event ring did not wrap (%d events seen) — the wrap check is vacuous", capacity, serialRing.Seen())
		}
		serialTrace, err := json.Marshal(serialRing.Events())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shards {
			res, blob, ring := tracedRun(s, capacity)
			if res.Sharding.Used < 2 {
				t.Fatalf("shards=%d: ran serially (fallback %q) — ring recorders must shard",
					s, res.Sharding.Fallback)
			}
			trace, err := json.Marshal(ring.Events())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serialTrace, trace) {
				t.Errorf("shards=%d ring=%d: flight-recorder trace diverged from serial (%d vs %d events)",
					s, capacity, len(serialRing.Events()), len(ring.Events()))
			}
			if ring.Seen() != serialRing.Seen() || ring.Overwritten() != serialRing.Overwritten() {
				t.Errorf("shards=%d ring=%d: ring saw %d events and overwrote %d, serial saw %d and overwrote %d",
					s, capacity, ring.Seen(), ring.Overwritten(), serialRing.Seen(), serialRing.Overwritten())
			}
			if !bytes.Equal(serialBlob, blob) {
				t.Errorf("shards=%d ring=%d: traced result diverged from serial", s, capacity)
			}
		}
		if whole == nil {
			whole = serialRing
		}
	}
	return whole
}

// TestShardedScenarioTraceParity requires the flight-recorder trace of a
// sharded scenario run — per-shard keyed buffers plus the coordinator's
// barrier records, merged in key order at every barrier step — to be
// byte-identical to the serial trace, in a ring that holds it all and in one
// that wraps.
func TestShardedScenarioTraceParity(t *testing.T) {
	topo := topology.NewFatTree(topology.FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	flows := fatTreeFlows(t, topo, 60*units.Microsecond)
	opts := DefaultOptions(SchemeBFC, topo)
	opts.Duration = 60 * units.Microsecond
	opts.Drain = 400 * units.Microsecond
	opts.Seed = 11
	opts.Scenario = fatTreeScenario()
	requireTraceParity(t, opts, flows, 2, 4)
}

// TestShardedCrossShardStrandParity cuts a link whose two ends sit on
// different shards: pod 0's second aggregation switch and the core switch
// it reaches. The link's deliveries, and so the packets it strands, run on
// the receiving shard; the run must still match the serial Result and trace
// exactly, and the strands must show in the trace. Under -race it also
// catches a stranded packet recycled into a pool another shard draws from.
func TestShardedCrossShardStrandParity(t *testing.T) {
	topo := topology.NewFatTree(topology.FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	link := &scenario.LinkRef{A: "pod0-agg1", B: "core1"}
	a, okA := topo.NodeByName(link.A)
	b, okB := topo.NodeByName(link.B)
	if !okA || !okB {
		t.Fatalf("no link %s-%s in the 32-host fat-tree", link.A, link.B)
	}
	for _, shards := range []int{2, 4} {
		if plan := topology.PlanShards(topo, shards); plan.Assign[a] == plan.Assign[b] {
			t.Fatalf("shards=%d: %s and %s share shard %d — the cut does not cross shards",
				shards, link.A, link.B, plan.Assign[a])
		}
	}
	flows := fatTreeFlows(t, topo, 60*units.Microsecond)
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
		t.Run(sc.String(), func(t *testing.T) {
			opts := DefaultOptions(sc, topo)
			opts.Duration = 60 * units.Microsecond
			opts.Drain = 400 * units.Microsecond
			opts.Seed = 11
			opts.Scenario = &scenario.Spec{
				Name: "cross-shard-flap",
				Events: []scenario.Event{
					{At: 20 * units.Microsecond, Kind: scenario.LinkDown, Link: link},
					{At: 50 * units.Microsecond, Kind: scenario.LinkUp, Link: link},
				},
			}
			ring := requireTraceParity(t, opts, flows, 2, 4)
			stranded := 0
			for _, ev := range ring.Events() {
				if ev.Kind == telemetry.KindStranded {
					stranded++
				}
			}
			if stranded == 0 {
				t.Fatalf("the serial trace holds no stranded packet (%d of %d events retained) — the test is vacuous",
					len(ring.Events()), ring.Seen())
			}
		})
	}
}

// TestShardedLostPauseFrameParity byte-compares, at one shard and at two, a
// run that loses pause frames on a link between the shards:
// t2IncastFlap's spine2-tor3 flap. The frames in flight on the cut link are
// lost (five BFC frames, four of them carrying a filter, counted by a probe
// in netsim's control delivery), so their filters go back to the pool of the
// shard that finds them lost, and
// the upstream state on the far shard keeps its old filter until the next
// frame after the link comes back. The 32-host fat-tree flaps above lose no
// frame at any down instant tried.
func TestShardedLostPauseFrameParity(t *testing.T) {
	topo, flows, flap := t2IncastFlap(t)
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
		opts := DefaultOptions(sc, topo)
		opts.Duration = 60 * units.Microsecond
		opts.Drain = 20 * units.Microsecond
		opts.Seed = 7
		opts.Scenario = flap
		_, serialBlob := runShardedResult(t, opts, flows, 1)
		sharded, shardedBlob := runShardedResult(t, opts, flows, 2)
		if sharded.Sharding.Used != 2 {
			t.Fatalf("%s: ran on %d shards (fallback %q), want 2", sc, sharded.Sharding.Used, sharded.Sharding.Fallback)
		}
		if !bytes.Equal(serialBlob, shardedBlob) {
			t.Errorf("%s: the run with a lost-frame flap differs at two shards (%d vs %d bytes)", sc, len(shardedBlob), len(serialBlob))
		}
	}
}

// TestShardedShrinkingDegradeParity byte-compares, at one, two and four
// shards, a run whose scenario shortens a boundary link (pod0-agg1-core1,
// which crosses at two and at four shards) from 1 us to 100 ns, below the
// lookahead the plan takes from the delays at the start of the run. The
// barriers must come closer together from the start, or a delivery sent on
// the shortened link lands before the barrier that would drain it. A
// degrade changes its topology for good, so each run builds its own.
func TestShardedShrinkingDegradeParity(t *testing.T) {
	fatTree := func() *topology.Topology {
		return topology.NewFatTree(topology.FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	}
	flows := fatTreeFlows(t, fatTree(), 60*units.Microsecond)
	link := &scenario.LinkRef{A: "pod0-agg1", B: "core1"}
	for _, sc := range []Scheme{SchemeBFC, SchemeDCQCN} {
		opts := func() Options {
			opts := DefaultOptions(sc, fatTree())
			opts.Duration = 60 * units.Microsecond
			opts.Drain = 100 * units.Microsecond
			opts.Seed = 7
			opts.Scenario = &scenario.Spec{Name: "shrink", Events: []scenario.Event{{
				At: 20 * units.Microsecond, Kind: scenario.LinkDegrade, Link: link,
				Degrade: &scenario.DegradeSpec{Delay: 100 * units.Nanosecond},
			}}}
			return opts
		}
		_, serialBlob := runShardedResult(t, opts(), flows, 1)
		for _, shards := range []int{2, 4} {
			res, blob := runShardedResult(t, opts(), flows, shards)
			if res.Sharding.Used != shards {
				t.Fatalf("%s: ran on %d shards (fallback %q), want %d", sc, res.Sharding.Used, res.Sharding.Fallback, shards)
			}
			if !bytes.Equal(serialBlob, blob) {
				t.Errorf("%s shards=%d: digest %s, serial %s", sc, shards, digestOf(blob), digestOf(serialBlob))
			}
		}
	}
}

// TestShardStepAllocFree: a barrier step of a two-shard run allocates
// nothing. The shard set builds its WaitGroup and one goroutine body per
// shard once per run, and a go statement on a built func value makes no
// closure.
func TestShardStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	set := newShardSet([]*runner{{}, {}})
	step := func(r *runner) { r.flowsTotal++ }
	if allocs := testing.AllocsPerRun(100, func() { set.each(step) }); allocs != 0 {
		t.Fatalf("a two-shard step allocated %v objects, want 0", allocs)
	}
	for i, r := range set.shards {
		if r.flowsTotal != 101 {
			t.Fatalf("shard %d ran %d steps, want 101", i, r.flowsTotal)
		}
	}
}
