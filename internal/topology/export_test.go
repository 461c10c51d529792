package topology

import (
	"fmt"

	"bfc/internal/packet"
)

// HopCount returns the number of links on the baseline shortest path from
// src to dst.
func (t *Topology) HopCount(src, dst packet.NodeID) int {
	if src == dst {
		return 0
	}
	_, d := t.route(t.baseRoutes, t.baseDist, src, dst)
	if d < 0 {
		panic(fmt.Sprintf("topology: no path from %d to %d", src, dst))
	}
	return d
}

// LinkCount returns the number of (bidirectional) links.
func (t *Topology) LinkCount() int {
	total := 0
	for _, n := range t.nodes {
		total += len(n.Ports)
	}
	return total / 2
}
