package topology

import (
	"testing"

	"bfc/internal/units"
)

// crossStats recomputes the plan's boundary statistics from scratch: the
// number of directed cross-shard links and the minimum delay among them.
func crossStats(topo *Topology, p *ShardPlan) (minDelay units.Time, cross int) {
	for _, n := range topo.Nodes() {
		for _, port := range n.Ports {
			if p.Assign[n.ID] == p.Assign[port.Peer] {
				continue
			}
			if cross == 0 || port.Delay < minDelay {
				minDelay = port.Delay
			}
			cross++
		}
	}
	return minDelay, cross
}

// TestPlanShardsStructure checks the tier-run rule on every fabric shape: the
// i-th of a tier's count nodes (in node-ID order) sits on shard i*S/count, no
// shard is left without a host, and a count that divides the ToRs splits no
// rack.
func TestPlanShardsStructure(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *Topology
	}{
		{"fattree-32", NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))},
		{"T2", NewT2()},
		{"clos-8x2x4", NewClos(ClosConfig{NumToR: 8, NumSpine: 2, HostsPerToR: 4, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})},
		{"crossdc-T2", NewCrossDC(T2Config()).Topology},
		{"star-8", NewSingleSwitch(SingleSwitchConfig{NumHosts: 8, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})},
	} {
		topo := tc.topo
		count := map[Tier]int{}
		for _, n := range topo.Nodes() {
			count[n.Tier]++
		}
		tors := count[TierToR]
		for shards := 1; shards <= 8; shards++ {
			p := PlanShards(topo, shards)
			if p.Shards != shards {
				t.Fatalf("%s PlanShards(%d): Shards=%d", tc.name, shards, p.Shards)
			}
			p.Validate(topo)
			seen := map[Tier]int{}
			for _, n := range topo.Nodes() {
				if got, want := p.Assign[n.ID], seen[n.Tier]*shards/count[n.Tier]; got != want {
					t.Fatalf("%s PlanShards(%d): %s (%s #%d of %d) on shard %d, want %d",
						tc.name, shards, n.Name, n.Tier, seen[n.Tier], count[n.Tier], got, want)
				}
				seen[n.Tier]++
			}
			hosts := make([]int, shards)
			for _, h := range topo.Hosts() {
				hosts[p.Assign[h]]++
				if tor := topo.Node(h).Ports[0].Peer; tors%shards == 0 && p.Assign[tor] != p.Assign[h] {
					t.Fatalf("%s PlanShards(%d): host %s apart from its ToR %s though %d divides %d ToRs",
						tc.name, shards, topo.Node(h).Name, topo.Node(tor).Name, shards, tors)
				}
			}
			for s, n := range hosts {
				if n == 0 {
					t.Fatalf("%s PlanShards(%d): shard %d holds no host", tc.name, shards, s)
				}
			}
		}
	}
}

func TestPlanShardsClamping(t *testing.T) {
	star := NewSingleSwitch(SingleSwitchConfig{NumHosts: 8, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	for _, tc := range []struct{ request, want int }{
		{16, 8}, // more shards than hosts: clamp down
		{8, 8},  // one host a shard
		{3, 3},  // below the host count
		{1, 1},  // explicit serial
		{0, 1},  // zero: clamp up
		{-5, 1}, // negative: clamp up
	} {
		p := PlanShards(star, tc.request)
		if p.Shards != tc.want {
			t.Errorf("PlanShards(%d).Shards = %d, want %d", tc.request, p.Shards, tc.want)
		}
		p.Validate(star)
	}
}

// TestPlanShardsSingleShardDegenerate: a star splits, its hosts spread over
// the shards and its switch on shard 0, with the link delay as lookahead;
// only a fabric of one host stays on one shard.
func TestPlanShardsSingleShardDegenerate(t *testing.T) {
	star := NewSingleSwitch(SingleSwitchConfig{NumHosts: 8, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	p := PlanShards(star, 4)
	if sw, _ := star.NodeByName("sw0"); p.Shards != 4 || p.Assign[sw] != 0 {
		t.Fatalf("star plan: Shards=%d, switch on shard %d; want 4 shards, switch on 0", p.Shards, p.Assign[sw])
	}
	if _, cross := crossStats(star, p); p.Lookahead != units.Microsecond || cross != 2*6 {
		t.Fatalf("star plan: Lookahead=%v cross links=%d, want 1us/12", p.Lookahead, cross)
	}
	p.Validate(star)

	one := NewClos(ClosConfig{NumToR: 1, NumSpine: 1, HostsPerToR: 1, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	p = PlanShards(one, 4)
	if _, cross := crossStats(one, p); p.Shards != 1 || p.Lookahead != 0 || cross != 0 {
		t.Fatalf("one-host plan: Shards=%d Lookahead=%v cross links=%d, want 1/0/0", p.Shards, p.Lookahead, cross)
	}
	p.Validate(one)
}

func TestPlanShardsLookahead(t *testing.T) {
	topo := NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	for _, shards := range []int{2, 3, 4} {
		p := PlanShards(topo, shards)
		wantMin, wantCross := crossStats(topo, p)
		if p.Lookahead != wantMin {
			t.Fatalf("PlanShards(%d): Lookahead=%v, recomputed min boundary delay %v", shards, p.Lookahead, wantMin)
		}
		// Uniform fabric: the minimum is the common link delay, and at least
		// one directed link must cross once the topology is split.
		if p.Lookahead != units.Microsecond {
			t.Fatalf("PlanShards(%d): Lookahead=%v, want 1us", shards, p.Lookahead)
		}
		if wantCross == 0 {
			t.Fatalf("PlanShards(%d): no cross links in a split plan", shards)
		}
	}
	// Two data centers split at their gateways: the 200 us inter-DC link is
	// the one link that crosses, in both directions.
	x := NewCrossDC(T2Config())
	p := PlanShards(x.Topology, 2)
	if _, cross := crossStats(x.Topology, p); p.Lookahead != gatewayDelay || cross != 2 {
		t.Fatalf("cross-DC PlanShards(2): Lookahead=%v over %d directed cross links, want %v over 2", p.Lookahead, cross, gatewayDelay)
	}
}

func TestPlanShardsLookaheadTracksMinCrossDelay(t *testing.T) {
	topo := NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	// At two shards pod0-agg1 sits on shard 0 and core1 on shard 1, so
	// pod0-agg1 <-> core1 is a boundary link. Shorten it and the lookahead
	// must shrink with it.
	agg, ok := topo.NodeByName("pod0-agg1")
	if !ok {
		t.Fatal("pod0-agg1 not found")
	}
	core, ok := topo.NodeByName("core1")
	if !ok {
		t.Fatal("core1 not found")
	}
	short := 300 * units.Nanosecond
	topo.SetLinkParams(agg, core, 100*units.Gbps, short)

	p := PlanShards(topo, 2)
	if p.Assign[agg] == p.Assign[core] {
		t.Fatalf("pod0-agg1 (shard %d) -> core1 (shard %d) expected to cross", p.Assign[agg], p.Assign[core])
	}
	if p.Lookahead != short {
		t.Fatalf("Lookahead=%v after shortening one boundary link, want %v", p.Lookahead, short)
	}

	// A zero-delay boundary link gives no positive lookahead, also when it is
	// scanned before a positive one: s0-s1 is s0's first port, h0-s1 crosses
	// too, at 1 us.
	var b Builder
	s0 := b.AddNode(Switch, TierToR, "s0")
	s1 := b.AddNode(Switch, TierToR, "s1")
	h0 := b.AddNode(Host, TierHost, "h0")
	h1 := b.AddNode(Host, TierHost, "h1")
	b.AddLink(s0, s1, 100*units.Gbps, 0)
	b.AddLink(h0, s1, 100*units.Gbps, units.Microsecond)
	b.AddLink(h1, s0, 100*units.Gbps, units.Microsecond)
	zero := b.Build()
	p = PlanShards(zero, 2)
	if p.Assign[s0] == p.Assign[s1] || p.Assign[h0] == p.Assign[s1] {
		t.Fatalf("assignment %v: s0-s1 and h0-s1 expected to cross", p.Assign)
	}
	if p.Lookahead != 0 {
		t.Fatalf("Lookahead=%v with a zero-delay boundary link, want 0", p.Lookahead)
	}
}

func TestPlanShardsCrossSymmetry(t *testing.T) {
	topo := NewT2()
	p := PlanShards(topo, 4)
	// Directed cross-link count must be even: links cross in pairs.
	if _, cross := crossStats(topo, p); cross%2 != 0 {
		t.Fatalf("%d cross links, want even", cross)
	}
}

func TestValidateCatchesCorruptPlan(t *testing.T) {
	topo := NewT2()
	expectPanic := func(name string, corrupt func(*ShardPlan)) {
		p := PlanShards(topo, 2)
		corrupt(p)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Validate did not panic", name)
			}
		}()
		p.Validate(topo)
	}
	expectPanic("truncated assign", func(p *ShardPlan) { p.Assign = p.Assign[:3] })
	expectPanic("out-of-range shard", func(p *ShardPlan) { p.Assign[0] = p.Shards })
	expectPanic("negative shard", func(p *ShardPlan) { p.Assign[0] = -1 })
	expectPanic("zero lookahead", func(p *ShardPlan) { p.Lookahead = 0 })
}
