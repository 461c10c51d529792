package topology

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/units"
)

func testFatTree(t *testing.T) *Topology {
	t.Helper()
	return NewFatTree(FatTreeConfig{
		Name: "ft-test", Pods: 4, EdgePerPod: 2, AggPerPod: 2,
		HostsPerEdge: 4, CorePerAgg: 2,
		LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
}

func TestFatTreeStructure(t *testing.T) {
	topo := testFatTree(t)
	wantHosts := 4 * 2 * 4
	if got := len(topo.Hosts()); got != wantHosts {
		t.Fatalf("hosts = %d, want %d", got, wantHosts)
	}
	tiers := map[Tier]int{}
	for _, n := range topo.Nodes() {
		tiers[n.Tier]++
	}
	if tiers[TierSpine] != 4 { // AggPerPod * CorePerAgg cores
		t.Fatalf("core switches = %d, want 4", tiers[TierSpine])
	}
	if tiers[TierAgg] != 8 {
		t.Fatalf("agg switches = %d, want 8", tiers[TierAgg])
	}
	if tiers[TierToR] != 8 {
		t.Fatalf("edge switches = %d, want 8", tiers[TierToR])
	}
	// Links: hosts + edge-agg (2*2 per pod) + agg-core (2*2 per pod).
	wantLinks := wantHosts + 4*(2*2) + 4*(2*2)
	if got := topo.LinkCount(); got != wantLinks {
		t.Fatalf("links = %d, want %d", got, wantLinks)
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	topo := testFatTree(t)
	sameEdge := mustNode(t, topo, "pod0-h0-1")
	samePod := mustNode(t, topo, "pod0-h1-0")
	otherPod := mustNode(t, topo, "pod3-h1-3")
	src := mustNode(t, topo, "pod0-h0-0")
	if got := topo.HopCount(src, sameEdge); got != 2 {
		t.Errorf("same-edge hop count = %d, want 2", got)
	}
	if got := topo.HopCount(src, samePod); got != 4 {
		t.Errorf("same-pod hop count = %d, want 4", got)
	}
	if got := topo.HopCount(src, otherPod); got != 6 {
		t.Errorf("inter-pod hop count = %d, want 6", got)
	}
}

func TestFatTreeECMPFanOut(t *testing.T) {
	topo := testFatTree(t)
	edge := mustNode(t, topo, "pod0-edge0")
	agg := mustNode(t, topo, "pod0-agg0")
	interPod := mustNode(t, topo, "pod2-h0-0")
	intraPod := mustNode(t, topo, "pod0-h1-0")
	local := mustNode(t, topo, "pod0-h0-1")
	// Toward another pod (and toward another edge of the same pod), every
	// aggregation switch of the pod is equal-cost.
	if got := len(topo.NextHops(edge, interPod)); got != 2 {
		t.Errorf("edge inter-pod ECMP width = %d, want AggPerPod=2", got)
	}
	if got := len(topo.NextHops(edge, intraPod)); got != 2 {
		t.Errorf("edge intra-pod ECMP width = %d, want AggPerPod=2", got)
	}
	// A directly attached host has a single next hop.
	if got := len(topo.NextHops(edge, local)); got != 1 {
		t.Errorf("edge local-host ECMP width = %d, want 1", got)
	}
	// An aggregation switch fans inter-pod traffic across its core uplinks.
	if got := len(topo.NextHops(agg, interPod)); got != 2 {
		t.Errorf("agg inter-pod ECMP width = %d, want CorePerAgg=2", got)
	}
	checkLoopFree(t, topo)
}

// TestFatTreeReroute drives the incremental reroute machinery through the
// three-tier fabric: failing an agg-core link must keep routing loop-free and
// every host reachable (the pod still has other uplinks), and recovery must
// restore the original tables exactly.
func TestFatTreeReroute(t *testing.T) {
	topo := testFatTree(t)
	before := snapshotRoutes(topo)
	agg := mustNode(t, topo, "pod0-agg0")
	core := mustNode(t, topo, "core0")

	if changed := topo.SetLinkState(agg, core, false); changed == 0 {
		t.Fatal("failing an agg-core link rewrote no routes")
	}
	checkLoopFree(t, topo)
	for _, src := range topo.Hosts() {
		for _, dst := range topo.Hosts() {
			if src != dst && len(topo.NextHopsOrNil(src, dst)) == 0 {
				t.Fatalf("host %d lost its route to %d after a single agg-core failure", src, dst)
			}
		}
	}

	if changed := topo.SetLinkState(agg, core, true); changed == 0 {
		t.Fatal("recovering the link rewrote no routes")
	}
	after := snapshotRoutes(topo)
	for key, want := range before {
		got := after[key]
		if len(got) != len(want) {
			t.Fatalf("route %v not restored: %v vs %v", key, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("route %v not restored: %v vs %v", key, got, want)
			}
		}
	}
}

// Failing every uplink of one edge switch must leave its hosts unreachable
// (empty next-hop sets, not panics), and the rest of the fabric routable.
func TestFatTreeEdgeIsolation(t *testing.T) {
	topo := testFatTree(t)
	edge := mustNode(t, topo, "pod1-edge0")
	for _, aggName := range []string{"pod1-agg0", "pod1-agg1"} {
		topo.SetLinkState(edge, mustNode(t, topo, aggName), false)
	}
	isolated := mustNode(t, topo, "pod1-h0-0")
	outside := mustNode(t, topo, "pod0-h0-0")
	if hops := topo.NextHopsOrNil(outside, isolated); len(hops) != 0 {
		t.Fatalf("expected no route into the isolated edge, got ports %v", hops)
	}
	other := mustNode(t, topo, "pod1-h1-0")
	if hops := topo.NextHopsOrNil(outside, other); len(hops) == 0 {
		t.Fatal("unrelated host lost its route")
	}
	checkLoopFree(t, topo)
}

func TestFatTreeForHosts(t *testing.T) {
	cases := []struct {
		request    int
		wantHosts  int
		wantPods   int
		wantEdgeOS float64
		wantCoreOS float64
	}{
		{16, 16, 2, 2, 2},
		{64, 64, 8, 2, 2},
		{128, 128, 4, 2, 2},
		{200, 224, 7, 2, 2},
		{1024, 1024, 32, 2, 2},
	}
	for _, tc := range cases {
		cfg := FatTreeForHosts(tc.request, 100*units.Gbps, units.Microsecond)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("FatTreeForHosts(%d): %v", tc.request, err)
		}
		if cfg.NumHosts() != tc.wantHosts || cfg.Pods != tc.wantPods {
			t.Errorf("FatTreeForHosts(%d) = %d hosts in %d pods, want %d in %d",
				tc.request, cfg.NumHosts(), cfg.Pods, tc.wantHosts, tc.wantPods)
		}
		// Downlink:uplink capacity ratios of the edge and aggregation tiers.
		edgeOS := float64(cfg.HostsPerEdge) / float64(cfg.AggPerPod)
		coreOS := float64(cfg.EdgePerPod) / float64(cfg.CorePerAgg)
		if edgeOS != tc.wantEdgeOS || coreOS != tc.wantCoreOS {
			t.Errorf("FatTreeForHosts(%d) oversubscription = %v:1 edge, %v:1 core, want %v/%v",
				tc.request, edgeOS, coreOS, tc.wantEdgeOS, tc.wantCoreOS)
		}
	}
	topo := NewFatTree(FatTreeForHosts(128, 100*units.Gbps, units.Microsecond))
	if len(topo.Hosts()) != 128 {
		t.Fatalf("built fat-tree has %d hosts, want 128", len(topo.Hosts()))
	}
}

func TestFatTreeValidate(t *testing.T) {
	good := FatTreeForHosts(32, 100*units.Gbps, units.Microsecond)
	bad := []func(*FatTreeConfig){
		func(c *FatTreeConfig) { c.Pods = 1 },
		func(c *FatTreeConfig) { c.EdgePerPod = 0 },
		func(c *FatTreeConfig) { c.AggPerPod = 0 },
		func(c *FatTreeConfig) { c.HostsPerEdge = 0 },
		func(c *FatTreeConfig) { c.CorePerAgg = 0 },
		func(c *FatTreeConfig) { c.LinkRate = 0 },
		func(c *FatTreeConfig) { c.LinkDelay = -1 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

// TestECMPBalanceAnchor holds ECMP to the uniform multinomial. It walks
// EgressPort hop by hop, the way switches forward a flow, on the 128-host
// fat-tree (4 pods of 4 edge x 8 hosts, 4 agg and 8 cores). Each relabelling
// draws fresh random host pairs and numbers their source ports consecutively,
// the way workload.Generate does. Every inter-pod flow must reach its
// destination through exactly one core switch, every core must carry some,
// and the per-core counts must fit the uniform multinomial: a relabelling's
// Pearson statistic X² = Σ (O − n/8)² / (n/8) over its n inter-pod flows is
// χ² with 7 degrees of freedom, so the mean over the relabellings must lie
// within four standard errors, 4·√(14/R), of 7. The same hash reduced modulo
// the port count at every tier fails it: the edge's choice of aggregation
// switch then fixes that switch's choice of core (ECMP polarisation), and 4
// of the 8 cores carry nothing.
func TestECMPBalanceAnchor(t *testing.T) {
	const relabellings, flowsPer = 200, 400
	topo := NewFatTree(FatTreeForHosts(128, 100*units.Gbps, units.Microsecond))
	hosts := topo.Hosts()
	pod := func(id packet.NodeID) string {
		p, _, _ := strings.Cut(topo.Node(id).Name, "-")
		return p
	}
	var cores []packet.NodeID
	for _, n := range topo.Nodes() {
		if n.Tier == TierSpine {
			cores = append(cores, n.ID)
		}
	}
	total := map[packet.NodeID]int{}
	var meanX2 float64
	for r := 0; r < relabellings; r++ {
		rng := rand.New(rand.NewSource(int64(r)))
		perCore := map[packet.NodeID]int{}
		interPod := 0
		for i := 0; i < flowsPer; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			f := &packet.Flow{ID: packet.FlowID(i), Src: src, Dst: dst, SrcPort: uint16(10000 + r*flowsPer + i), DstPort: 4791}
			var crossed []packet.NodeID
			node := src
			for hops := 0; node != dst; hops++ {
				if hops > 6 {
					t.Fatalf("flow %v (%s -> %s) did not arrive within 6 hops", f, topo.Node(src).Name, topo.Node(dst).Name)
				}
				node = topo.Node(node).Ports[topo.EgressPort(node, f)].Peer
				if topo.Node(node).Tier == TierSpine {
					crossed = append(crossed, node)
				}
			}
			if pod(src) == pod(dst) {
				if len(crossed) != 0 {
					t.Fatalf("intra-pod flow %v crossed cores %v", f, crossed)
				}
				continue
			}
			if len(crossed) != 1 {
				t.Fatalf("inter-pod flow %v (%s -> %s) crossed cores %v, want exactly one", f, topo.Node(src).Name, topo.Node(dst).Name, crossed)
			}
			perCore[crossed[0]]++
			interPod++
		}
		expect := float64(interPod) / float64(len(cores))
		for _, c := range cores {
			d := float64(perCore[c]) - expect
			meanX2 += d * d / expect / relabellings
			total[c] += perCore[c]
		}
	}
	dof := float64(len(cores) - 1)
	band := 4 * math.Sqrt(2*dof/relabellings)
	t.Logf("mean X² over %d relabellings = %.2f, want %.0f ± %.2f; flows per core:", relabellings, meanX2, dof, band)
	for _, c := range cores {
		t.Logf("  %s %d", topo.Node(c).Name, total[c])
		if total[c] == 0 {
			t.Errorf("core %s carried none of the inter-pod flows", topo.Node(c).Name)
		}
	}
	if math.Abs(meanX2-dof) > band {
		t.Errorf("mean X² %.2f is %+.2f from the %.0f of a uniform spread, band ±%.2f", meanX2, meanX2-dof, dof, band)
	}
}
