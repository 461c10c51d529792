package topology

import (
	"testing"

	"bfc/internal/units"
)

func TestNumPods(t *testing.T) {
	cases := []struct {
		name string
		topo *Topology
		want int
	}{
		{"T1", NewClos(T1Config()), 8},
		{"T2", NewT2(), 4},
		{"fattree-32", NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond)), 4},
		{"fattree-256", NewFatTree(FatTreeForHosts(256, 100*units.Gbps, units.Microsecond)), 8},
		{"star", NewSingleSwitch(SingleSwitchConfig{NumHosts: 4, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond}), 1},
	}
	for _, tc := range cases {
		if got, _ := podComponents(tc.topo); got != tc.want {
			t.Errorf("%s: %d pods, want %d", tc.name, got, tc.want)
		}
	}
}

// crossStats recomputes the plan's boundary statistics from scratch: the
// number of directed cross-shard links and the minimum delay among them.
func crossStats(topo *Topology, p *ShardPlan) (minDelay units.Time, cross int) {
	for _, n := range topo.Nodes() {
		for _, port := range n.Ports {
			if p.Assign[n.ID] == p.Assign[port.Peer] {
				continue
			}
			cross++
			if minDelay == 0 || port.Delay < minDelay {
				minDelay = port.Delay
			}
		}
	}
	return minDelay, cross
}

func TestPlanShardsStructure(t *testing.T) {
	topo := NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	pods, comp := podComponents(topo)
	if pods != 4 {
		t.Fatalf("fattree-32 pods = %d, want 4", pods)
	}
	for _, shards := range []int{1, 2, 3, 4} {
		p := PlanShards(topo, shards)
		if p.Shards != shards {
			t.Fatalf("PlanShards(%d): Shards=%d", shards, p.Shards)
		}
		p.Validate(topo)
		// Every node assigned exactly once, in range.
		if len(p.Assign) != topo.NumNodes() {
			t.Fatalf("PlanShards(%d): %d assignments for %d nodes", shards, len(p.Assign), topo.NumNodes())
		}
		for id, s := range p.Assign {
			if s < 0 || s >= p.Shards {
				t.Fatalf("PlanShards(%d): node %d on shard %d", shards, id, s)
			}
		}
		// A pod is never split: all nodes of one component share a shard, and
		// pod i lands on shard i mod S.
		for id, c := range comp {
			if c < 0 {
				continue
			}
			if got, want := p.Assign[id], c%shards; got != want {
				t.Fatalf("PlanShards(%d): pod %d node %d on shard %d, want %d", shards, c, id, got, want)
			}
		}
		// Core switches are round-robined in node-ID order.
		core := 0
		for id, c := range comp {
			if c >= 0 {
				continue
			}
			if got, want := p.Assign[id], core%shards; got != want {
				t.Fatalf("PlanShards(%d): core #%d (node %d) on shard %d, want %d", shards, core, id, got, want)
			}
			core++
		}
	}
}

func TestPlanShardsClamping(t *testing.T) {
	topo := NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond)) // 4 pods
	for _, tc := range []struct{ request, want int }{
		{8, 4},  // more shards than pods: clamp down
		{4, 4},  // exact fit
		{1, 1},  // explicit serial
		{0, 1},  // zero: clamp up
		{-5, 1}, // negative: clamp up
	} {
		p := PlanShards(topo, tc.request)
		if p.Shards != tc.want {
			t.Errorf("PlanShards(%d).Shards = %d, want %d", tc.request, p.Shards, tc.want)
		}
		p.Validate(topo)
	}
}

func TestPlanShardsSingleShardDegenerate(t *testing.T) {
	star := NewSingleSwitch(SingleSwitchConfig{NumHosts: 8, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	p := PlanShards(star, 4) // one pod: cannot split
	if p.Shards != 1 {
		t.Fatalf("star plan: Shards=%d, want 1", p.Shards)
	}
	if _, cross := crossStats(star, p); p.Lookahead != 0 || cross != 0 {
		t.Fatalf("star plan: Lookahead=%v cross links=%d, want 0/0", p.Lookahead, cross)
	}
	p.Validate(star)
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
}

func TestPlanShardsLookaheadTracksMinCrossDelay(t *testing.T) {
	topo := NewFatTree(FatTreeForHosts(32, 100*units.Gbps, units.Microsecond))
	// pod0 lands on shard 0 and core1 on shard 1 under any multi-shard plan,
	// so pod0-agg1 <-> core1 is always a boundary link. Shorten it and the
	// lookahead must shrink with it.
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
