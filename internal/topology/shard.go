package topology

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// coreTier reports whether a node belongs to the inter-pod core (top-tier
// spines and cross-DC gateways). Removing the core disconnects the fabric
// into its pods.
func coreTier(t Tier) bool { return t == TierSpine || t == TierGateway }

// podComponents returns the number of pods in the topology, the connected
// components that remain after removing the core (spine and gateway)
// switches, and labels every non-core node with its pod index (components in
// ascending lowest-node-ID order, so labeling is deterministic). Core nodes
// get -1. A two-tier Clos has one pod per ToR group; a three-tier fat-tree
// has its ToR+Agg pods; a single-switch topology counts as one pod.
func podComponents(t *Topology) (int, []int) {
	n := t.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	pods := 0
	var queue []int
	for start := 0; start < n; start++ {
		node := t.Node(packet.NodeID(start))
		if coreTier(node.Tier) || comp[start] != -1 {
			continue
		}
		comp[start] = pods
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range t.Node(packet.NodeID(cur)).Ports {
				peer := int(p.Peer)
				if comp[peer] != -1 || coreTier(t.Node(p.Peer).Tier) {
					continue
				}
				comp[peer] = pods
				queue = append(queue, peer)
			}
		}
		pods++
	}
	return pods, comp
}

// ShardPlan is a deterministic partition of a topology's nodes into shards
// for the conservative-PDES engine. Whole pods are the unit of placement:
// every node of a pod lands on one shard, and core switches are spread
// round-robin. The plan also carries the conservative lookahead — the
// smallest propagation delay of any cross-shard link — which bounds how far a
// shard may run ahead of the others without missing a boundary delivery.
type ShardPlan struct {
	// Shards is the effective shard count (requested count clamped to the
	// number of pods; never below 1).
	Shards int
	// Pods is the number of pods detected in the topology.
	Pods int
	// Assign maps every node ID to its shard index.
	Assign []int
	// Lookahead is the minimum delay over all cross-shard links, 0 when the
	// plan has a single shard. A positive lookahead guarantees that a
	// delivery emitted during a window arrives no earlier than the next
	// barrier, which is what makes barrier-synchronized execution exact.
	Lookahead units.Time
	// CrossLinks counts directed cross-shard links (diagnostics).
	CrossLinks int
}

// PlanShards partitions t into at most shards shards. The request is clamped
// to [1, pods]: a pod is never split, because intra-pod links (host-ToR) are
// typically the shortest in the fabric and would collapse the lookahead.
// Pod i goes to shard i mod S and core switch j (in node-ID order) to shard
// j mod S, so the plan is a pure function of the topology and the count.
func PlanShards(t *Topology, shards int) *ShardPlan {
	pods, comp := podComponents(t)
	if shards > pods {
		shards = pods
	}
	if shards < 1 {
		shards = 1
	}
	p := &ShardPlan{Shards: shards, Pods: pods, Assign: make([]int, t.NumNodes())}
	core := 0
	for i, c := range comp {
		if c >= 0 {
			p.Assign[i] = c % shards
			continue
		}
		p.Assign[i] = core % shards
		core++
	}
	p.Lookahead, p.CrossLinks = p.boundaryStats(t)
	return p
}

// boundaryStats scans all links and returns the minimum cross-shard delay and
// the number of directed cross-shard links.
func (p *ShardPlan) boundaryStats(t *Topology) (units.Time, int) {
	var min units.Time
	cross := 0
	for _, n := range t.Nodes() {
		for _, port := range n.Ports {
			if p.Assign[n.ID] == p.Assign[port.Peer] {
				continue
			}
			cross++
			if min == 0 || port.Delay < min {
				min = port.Delay
			}
		}
	}
	return min, cross
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
