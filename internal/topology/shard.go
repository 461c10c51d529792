package topology

import (
	"fmt"

	"bfc/internal/units"
)

// ShardPlan is a deterministic partition of a topology's nodes into shards
// for the conservative-PDES engine, with the conservative lookahead: the
// smallest propagation delay of any cross-shard link, which bounds how far a
// shard may run ahead of the others without missing a boundary delivery.
// Every event's ordering key is computed alike on every partition, so any
// assignment with a positive lookahead gives the serial run's bytes; the plan
// decides only how fast a run goes.
type ShardPlan struct {
	// Shards is the effective shard count: the request clamped to
	// [1, hosts].
	Shards int
	// Assign maps every node ID to its shard index.
	Assign []int
	// Lookahead is the minimum delay over all cross-shard links, as the
	// topology has them when the plan is made, 0 when the plan has a single
	// shard. A positive lookahead guarantees that a delivery emitted during
	// a window arrives no earlier than the next barrier, which is what makes
	// barrier-synchronized execution exact.
	Lookahead units.Time
}

// PlanShards partitions t into S shards, the request clamped to [1, hosts].
// It cuts the nodes of each tier, in node-ID order, into S contiguous runs: the i-th
// of a tier's count nodes goes to shard i*S/count. The builders number every
// tier rack by rack, so whenever S divides the ToR count no rack is split.
// Every shard holds at least one host. The plan is a pure function of the
// topology and the count.
func PlanShards(t *Topology, shards int) *ShardPlan {
	shards = max(1, min(shards, len(t.Hosts())))
	count := map[Tier]int{}
	for _, n := range t.Nodes() {
		count[n.Tier]++
	}
	p := &ShardPlan{Shards: shards, Assign: make([]int, t.NumNodes())}
	seen := map[Tier]int{}
	for i, n := range t.Nodes() {
		p.Assign[i] = seen[n.Tier] * shards / count[n.Tier]
		seen[n.Tier]++
	}
	p.Lookahead = p.minCrossDelay(t)
	return p
}

// minCrossDelay scans all links and returns the minimum cross-shard delay, 0
// when no link crosses (a zero-delay link that crosses also gives 0).
func (p *ShardPlan) minCrossDelay(t *Topology) units.Time {
	var min units.Time
	found := false
	for _, n := range t.Nodes() {
		for _, port := range n.Ports {
			if p.Assign[n.ID] != p.Assign[port.Peer] && (!found || port.Delay < min) {
				min, found = port.Delay, true
			}
		}
	}
	return min
}

// Validate checks the plan's structural invariants and panics on violation:
// every node assigned to exactly one shard in range, and a positive lookahead
// whenever the plan actually splits the topology. It is cheap and run once
// per simulation, catching planner regressions before they corrupt a run.
func (p *ShardPlan) Validate(t *Topology) {
	if len(p.Assign) != t.NumNodes() {
		panic(fmt.Sprintf("topology: shard plan covers %d of %d nodes", len(p.Assign), t.NumNodes()))
	}
	for id, s := range p.Assign {
		if s < 0 || s >= p.Shards {
			panic(fmt.Sprintf("topology: node %d assigned to shard %d of %d", id, s, p.Shards))
		}
	}
	if p.Shards > 1 && p.Lookahead <= 0 {
		panic("topology: multi-shard plan with non-positive lookahead")
	}
}
