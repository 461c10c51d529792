package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bfc/internal/packet"
	"bfc/internal/units"
)

func TestCDFValidation(t *testing.T) {
	assertPanics(t, func() { NewCDF("x", []CDFPoint{{Size: 100, Cum: 1}}) })
	assertPanics(t, func() {
		NewCDF("x", []CDFPoint{{Size: 100, Cum: 0.5}, {Size: 50, Cum: 1}})
	})
	assertPanics(t, func() {
		NewCDF("x", []CDFPoint{{Size: 100, Cum: 0.5}, {Size: 200, Cum: 0.9}})
	})
	assertPanics(t, func() {
		NewCDF("x", []CDFPoint{{Size: 100, Cum: 0.7}, {Size: 200, Cum: 0.5}})
	})
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func TestBuiltinCDFsWellFormed(t *testing.T) {
	for _, c := range []*CDF{Google(), FBHadoop(), WebSearch()} {
		pts := c.points
		if pts[len(pts)-1].Cum != 1 {
			t.Fatalf("%s CDF does not end at 1", c.Name)
		}
		if c.Mean() <= 0 {
			t.Fatalf("%s mean not positive", c.Name)
		}
	}
}

func TestGoogleMostFlowsUnder1KB(t *testing.T) {
	// §4.3: "in the Google workload more than 80% flows are < 1KB".
	g := Google()
	if frac := g.FractionBelow(1024); frac < 0.8 {
		t.Fatalf("Google fraction below 1KB = %.2f, want >= 0.8", frac)
	}
	// WebSearch is much heavier.
	if frac := WebSearch().FractionBelow(1024); frac > 0.1 {
		t.Fatalf("WebSearch fraction below 1KB = %.2f, want ~0", frac)
	}
}

func TestWorkloadOrderingByMean(t *testing.T) {
	// Fig 4 ordering: Google smallest flows, then FB_Hadoop, then WebSearch.
	g, f, w := Google().Mean(), FBHadoop().Mean(), WebSearch().Mean()
	if !(g < f && f < w) {
		t.Fatalf("mean ordering violated: google=%d fb=%d web=%d", g, f, w)
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := Google()
	n := 200000
	under1KB := 0
	var total units.Bytes
	for i := 0; i < n; i++ {
		s := g.Sample(rng)
		if s <= 0 {
			t.Fatal("non-positive sample")
		}
		if s < 1024 {
			under1KB++
		}
		total += s
	}
	frac := float64(under1KB) / float64(n)
	if frac < 0.75 || frac > 0.90 {
		t.Fatalf("sampled fraction under 1KB = %.3f, want ~0.82", frac)
	}
	empMean := float64(total) / float64(n)
	cdfMean := float64(g.Mean())
	if empMean < 0.7*cdfMean || empMean > 1.3*cdfMean {
		t.Fatalf("empirical mean %.0f deviates from CDF mean %.0f", empMean, cdfMean)
	}
}

func TestByteWeightedCDF(t *testing.T) {
	for _, c := range []*CDF{Google(), FBHadoop(), WebSearch()} {
		bw := c.ByteWeightedCDF()
		if bw[len(bw)-1].Cum < 0.999 || bw[len(bw)-1].Cum > 1.001 {
			t.Fatalf("%s byte-weighted CDF does not end at 1", c.Name)
		}
		prev := 0.0
		for _, p := range bw {
			if p.Cum < prev {
				t.Fatalf("%s byte-weighted CDF not monotone", c.Name)
			}
			prev = p.Cum
		}
		// Byte-weighted CDF is below the flow-count CDF (large flows carry
		// disproportionate bytes).
		if c.Name == "Google" {
			if bw[4].Cum >= c.points[4].Cum {
				t.Fatalf("byte-weighted CDF should lag the flow-count CDF")
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"google", "fb_hadoop", "websearch"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func hostIDs(n int) []packet.NodeID {
	hosts := make([]packet.NodeID, n)
	for i := range hosts {
		hosts[i] = packet.NodeID(i + 100)
	}
	return hosts
}

func TestGenerateValidation(t *testing.T) {
	base := Config{
		Hosts:    hostIDs(8),
		CDF:      Google(),
		Load:     0.5,
		HostRate: 100 * units.Gbps,
		Duration: units.Millisecond,
	}
	bad := base
	bad.Hosts = hostIDs(1)
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for too few hosts")
	}
	bad = base
	bad.CDF = nil
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for nil CDF")
	}
	bad = base
	bad.Load = 1.5
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for load > 1")
	}
	bad = base
	bad.Duration = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for zero duration")
	}
	bad = base
	bad.Incast = IncastConfig{Enabled: true}
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for incomplete incast config")
	}
}

func TestGenerateLoadTargeting(t *testing.T) {
	cfg := Config{
		Hosts:    hostIDs(16),
		CDF:      Google(),
		Load:     0.6,
		HostRate: 100 * units.Gbps,
		Duration: 20 * units.Millisecond,
		Seed:     7,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Flows) == 0 {
		t.Fatal("no flows generated")
	}
	if tr.OfferedLoad < 0.35 || tr.OfferedLoad > 0.95 {
		t.Fatalf("offered load %.2f too far from target 0.6 (lognormal variance is high but the mean should be near target)", tr.OfferedLoad)
	}
	// Flows are sorted by start time and within the horizon.
	for i, f := range tr.Flows {
		if f.StartTime >= cfg.Duration {
			t.Fatal("flow starts after the horizon")
		}
		if i > 0 && f.StartTime < tr.Flows[i-1].StartTime {
			t.Fatal("flows not sorted by start time")
		}
		if f.Src == f.Dst {
			t.Fatal("self-flow generated")
		}
	}
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	cfg := Config{
		Hosts:    hostIDs(8),
		CDF:      FBHadoop(),
		Load:     0.4,
		HostRate: 100 * units.Gbps,
		Duration: 5 * units.Millisecond,
		Seed:     123,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if *a.Flows[i] != *b.Flows[i] {
			t.Fatalf("flow %d differs between identical seeds", i)
		}
	}
	cfg.Seed = 124
	c, _ := Generate(cfg)
	same := len(c.Flows) == len(a.Flows)
	if same {
		for i := range a.Flows {
			if a.Flows[i].Size != c.Flows[i].Size {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateIncast(t *testing.T) {
	cfg := Config{
		Hosts:    hostIDs(64),
		CDF:      Google(),
		Load:     0.3,
		HostRate: 100 * units.Gbps,
		Duration: 10 * units.Millisecond,
		Seed:     3,
		Incast: IncastConfig{
			Enabled:       true,
			FanIn:         100,
			AggregateSize: 20 * units.MB,
			LoadFraction:  0.05,
		},
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	incastFlows, incastBytes := 0, units.Bytes(0)
	perEvent := map[units.Time][]*packet.Flow{}
	for _, f := range tr.Flows {
		if f.IsIncast {
			incastFlows++
			incastBytes += f.Size
			perEvent[f.StartTime] = append(perEvent[f.StartTime], f)
		}
	}
	if incastFlows == 0 {
		t.Fatal("no incast flows generated")
	}
	if incastFlows%100 != 0 {
		t.Fatalf("incast flows %d not a multiple of the fan-in", incastFlows)
	}
	for at, flows := range perEvent {
		if len(flows) != 100 {
			t.Fatalf("incast event at %v has %d senders, want 100", at, len(flows))
		}
		var total units.Bytes
		dst := flows[0].Dst
		for _, f := range flows {
			total += f.Size
			if f.Dst != dst {
				t.Fatal("incast event has multiple destinations")
			}
			if f.Src == dst {
				t.Fatal("incast sender equals the victim")
			}
		}
		if total < 19*units.MB || total > 21*units.MB {
			t.Fatalf("incast aggregate = %v, want ~20MB", total)
		}
	}
	// Incast bytes should be roughly 5% of capacity: allow wide tolerance
	// because events are whole 20MB quanta.
	capacityBytes := float64(cfg.HostRate) / 8 * float64(len(cfg.Hosts)) * cfg.Duration.Seconds()
	frac := float64(incastBytes) / capacityBytes
	if frac < 0.02 || frac > 0.09 {
		t.Fatalf("incast load fraction = %.3f, want ~0.05", frac)
	}
}

func TestGenerateIncastFixedInterval(t *testing.T) {
	cfg := Config{
		Hosts:    hostIDs(16),
		CDF:      Google(),
		Load:     0,
		HostRate: 100 * units.Gbps,
		Duration: 3 * units.Millisecond,
		Seed:     5,
		Incast: IncastConfig{
			Enabled:       true,
			FanIn:         10,
			AggregateSize: 2 * units.MB,
			Interval:      500 * units.Microsecond,
		},
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Events at 500us, 1000us, ..., 2500us -> 5 events of 10 flows.
	if len(tr.Flows) != 50 {
		t.Fatalf("got %d incast flows, want 50", len(tr.Flows))
	}
	if tr.BackgroundBytes != 0 {
		t.Fatal("zero load should generate no background flows")
	}
}

func TestLongLivedFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hosts := hostIDs(16)
	dst := hosts[3]
	flows := LongLivedFlows(rng, hosts, dst, 4, 100)
	if len(flows) != 4 {
		t.Fatalf("got %d flows, want 4", len(flows))
	}
	for i, f := range flows {
		if f.Dst != dst || f.Src == dst {
			t.Fatal("long-lived flow endpoints wrong")
		}
		if !f.LongLived {
			t.Fatal("flow not marked long-lived")
		}
		if f.ID != packet.FlowID(100+i) {
			t.Fatal("flow IDs not sequential")
		}
	}
	// More flows than hosts wraps senders.
	many := LongLivedFlows(rng, hosts, dst, 40, 200)
	if len(many) != 40 {
		t.Fatalf("got %d flows, want 40", len(many))
	}
}

func TestInterDCGeneration(t *testing.T) {
	dc1, dc2 := hostIDs(8), make([]packet.NodeID, 8)
	for i := range dc2 {
		dc2[i] = packet.NodeID(500 + i)
	}
	all := append(append([]packet.NodeID{}, dc1...), dc2...)
	inter := &InterDCConfig{HostsDC1: dc1, HostsDC2: dc2}
	cfg := Config{
		Hosts:    all,
		CDF:      FBHadoop(),
		Load:     0.5,
		HostRate: 10 * units.Gbps,
		Duration: 50 * units.Millisecond,
		Seed:     11,
		InterDC:  inter,
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	interCount := 0
	for _, f := range tr.Flows {
		if inter.IsInterDC(f) {
			interCount++
		}
	}
	frac := float64(interCount) / float64(len(tr.Flows))
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("inter-DC fraction = %.2f, want ~0.2", frac)
	}
}

// Property: generated traces never contain self-flows, zero sizes, or
// out-of-horizon start times, for any seed and load.
func TestGenerateProperties(t *testing.T) {
	prop := func(seed int64, loadRaw uint8) bool {
		cfg := Config{
			Hosts:    hostIDs(8),
			CDF:      Google(),
			Load:     float64(loadRaw%90) / 100,
			HostRate: 100 * units.Gbps,
			Duration: 2 * units.Millisecond,
			Seed:     seed,
		}
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, f := range tr.Flows {
			if f.Src == f.Dst || f.Size <= 0 || f.StartTime < 0 || f.StartTime >= cfg.Duration {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutation(t *testing.T) {
	hosts := make([]packet.NodeID, 8)
	for i := range hosts {
		hosts[i] = packet.NodeID(i + 10)
	}
	rng := rand.New(rand.NewSource(3))
	flows := Permutation(rng, hosts, 64*units.KB, 5*units.Microsecond, 100, 7000)
	if len(flows) != len(hosts) {
		t.Fatalf("got %d flows, want %d", len(flows), len(hosts))
	}
	srcSeen := map[packet.NodeID]bool{}
	dstSeen := map[packet.NodeID]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Errorf("flow %d sends to itself", f.ID)
		}
		if srcSeen[f.Src] || dstSeen[f.Dst] {
			t.Errorf("host repeated as src or dst: %+v", f)
		}
		srcSeen[f.Src], dstSeen[f.Dst] = true, true
		if f.Size != 64*units.KB || f.StartTime != 5*units.Microsecond {
			t.Errorf("flow parameters wrong: %+v", f)
		}
	}
	// Determinism: same seed, same permutation.
	again := Permutation(rand.New(rand.NewSource(3)), hosts, 64*units.KB, 5*units.Microsecond, 100, 7000)
	for i := range flows {
		if flows[i].Dst != again[i].Dst {
			t.Fatalf("permutation not deterministic at %d", i)
		}
	}
}

func TestAllToAll(t *testing.T) {
	hosts := []packet.NodeID{1, 2, 3, 4}
	flows := AllToAll(hosts, 10*units.KB, 0, 1, 8000)
	if len(flows) != len(hosts)*(len(hosts)-1) {
		t.Fatalf("got %d flows, want %d", len(flows), len(hosts)*(len(hosts)-1))
	}
	pairs := map[[2]packet.NodeID]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Errorf("self flow: %+v", f)
		}
		key := [2]packet.NodeID{f.Src, f.Dst}
		if pairs[key] {
			t.Errorf("pair %v duplicated", key)
		}
		pairs[key] = true
	}
}

func TestIncastBurst(t *testing.T) {
	hosts := []packet.NodeID{1, 2, 3, 4, 5}
	rng := rand.New(rand.NewSource(9))
	flows := IncastBurst(rng, hosts, 2, 10, 100*units.KB, 7*units.Microsecond, 50, 9000)
	if len(flows) != 10 {
		t.Fatalf("got %d flows, want 10", len(flows))
	}
	for _, f := range flows {
		if f.Dst != hosts[2] {
			t.Errorf("flow %d targets %d, not the victim", f.ID, f.Dst)
		}
		if f.Src == hosts[2] {
			t.Errorf("victim sends to itself")
		}
		if !f.IsIncast {
			t.Errorf("flow %d not marked incast", f.ID)
		}
		if f.Size != 10*units.KB {
			t.Errorf("per-sender size %v, want 10KB", f.Size)
		}
	}
}
