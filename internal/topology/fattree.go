package topology

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// FatTreeConfig parameterizes a three-tier fat-tree: Pods pods, each holding
// EdgePerPod edge (top-of-rack) switches and AggPerPod aggregation switches,
// under a core layer of AggPerPod*CorePerAgg spine switches.
//
// Wiring: every edge switch connects to every aggregation switch in its pod;
// aggregation switch a of every pod connects to core switches
// [a*CorePerAgg, (a+1)*CorePerAgg), so any two pods are joined through every
// aggregation position. All links share LinkRate, which makes the
// oversubscription at each tier a pure port-count ratio:
//
//   - edge tier: HostsPerEdge downlinks vs AggPerPod uplinks,
//   - core tier: EdgePerPod downlinks vs CorePerAgg uplinks per agg switch.
//
// The classic k-ary fat-tree is the special case Pods = k,
// EdgePerPod = AggPerPod = HostsPerEdge = CorePerAgg = k/2 (1:1 at both
// tiers); the paper-style 2:1 oversubscribed fabrics set HostsPerEdge =
// 2*AggPerPod and CorePerAgg = EdgePerPod/2.
type FatTreeConfig struct {
	Pods         int
	EdgePerPod   int
	AggPerPod    int
	HostsPerEdge int
	// CorePerAgg is the number of core switches each aggregation switch
	// uplinks to; the core layer has AggPerPod*CorePerAgg switches in total.
	CorePerAgg int
	// LinkRate applies to every link, as in the paper's Clos fabrics.
	LinkRate units.Rate
	// LinkDelay is the per-link propagation delay.
	LinkDelay units.Time
}

// Validate checks the configuration.
func (c FatTreeConfig) Validate() error {
	if c.Pods < 2 {
		return fmt.Errorf("topology: fat-tree needs at least 2 pods (got %d)", c.Pods)
	}
	if c.EdgePerPod <= 0 || c.AggPerPod <= 0 || c.HostsPerEdge <= 0 || c.CorePerAgg <= 0 {
		return fmt.Errorf("topology: fat-tree dimensions must be positive (got edge/pod=%d agg/pod=%d hosts/edge=%d core/agg=%d)",
			c.EdgePerPod, c.AggPerPod, c.HostsPerEdge, c.CorePerAgg)
	}
	if c.LinkRate <= 0 {
		return fmt.Errorf("topology: link rate must be positive")
	}
	if c.LinkDelay < 0 {
		return fmt.Errorf("topology: link delay must be non-negative")
	}
	return nil
}

// NumHosts returns the total host count of the configured fabric.
func (c FatTreeConfig) NumHosts() int { return c.Pods * c.EdgePerPod * c.HostsPerEdge }

// NumCore returns the core-layer switch count.
func (c FatTreeConfig) NumCore() int { return c.AggPerPod * c.CorePerAgg }

// NewFatTree builds the three-tier fat-tree. Edge switches are TierToR,
// aggregation switches TierAgg and core switches TierSpine, so tier-keyed
// statistics (pause-time fractions) split the fabric into Host->ToR,
// ToR->Agg and Agg->Spine classes. Routing is the same hop-count ECMP every
// topology uses — all aggregation switches of a pod lie on shortest inter-pod
// paths, so flows hash across the full uplink fan-out — and the incremental
// reroute machinery (SetLinkState/SetLinkParams) applies unchanged.
func NewFatTree(c FatTreeConfig) *Topology {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	b := &Builder{}
	hosts := c.EdgePerPod * c.HostsPerEdge
	b.grow(c.NumCore()+c.Pods*(c.AggPerPod+c.EdgePerPod+hosts),
		c.Pods*(c.AggPerPod*c.CorePerAgg+c.EdgePerPod*c.AggPerPod+hosts))
	cores := make([]packet.NodeID, 0, c.NumCore())
	for s := 0; s < c.NumCore(); s++ {
		cores = append(cores, b.node(Switch, TierSpine, "core%d", s))
	}
	aggs := make([]packet.NodeID, 0, c.AggPerPod)
	for p := 0; p < c.Pods; p++ {
		aggs = aggs[:0]
		for a := 0; a < c.AggPerPod; a++ {
			agg := b.node(Switch, TierAgg, "pod%d-agg%d", p, a)
			for k := 0; k < c.CorePerAgg; k++ {
				b.AddLink(agg, cores[a*c.CorePerAgg+k], c.LinkRate, c.LinkDelay)
			}
			aggs = append(aggs, agg)
		}
		for e := 0; e < c.EdgePerPod; e++ {
			edge := b.node(Switch, TierToR, "pod%d-edge%d", p, e)
			for _, agg := range aggs {
				b.AddLink(edge, agg, c.LinkRate, c.LinkDelay)
			}
			for h := 0; h < c.HostsPerEdge; h++ {
				host := b.node(Host, TierHost, "pod%d-h%d-%d", p, e, h)
				b.AddLink(host, edge, c.LinkRate, c.LinkDelay)
			}
		}
	}
	return b.Build()
}

// FatTreeForHosts derives a balanced 2:1/2:1-oversubscribed fat-tree able to
// hold at least the requested number of hosts (the scale tier's standard
// shape). Small fabrics (<= 64 hosts) use 8-host pods (2 edge x 4 hosts,
// 2 agg, 2 cores); larger ones use 32-host pods (4 edge x 8 hosts, 4 agg,
// 8 cores). The pod count rounds the host count up to a whole number of pods,
// so the built topology's host count is NumHosts() of the returned config,
// which may exceed the request: 128 -> 4 pods, 256 -> 8, 512 -> 16,
// 1024 -> 32.
func FatTreeForHosts(hosts int, rate units.Rate, delay units.Time) FatTreeConfig {
	cfg := FatTreeConfig{
		EdgePerPod:   4,
		AggPerPod:    4,
		HostsPerEdge: 8,
		CorePerAgg:   2,
		LinkRate:     rate,
		LinkDelay:    delay,
	}
	if hosts <= 64 {
		cfg.EdgePerPod, cfg.AggPerPod, cfg.HostsPerEdge, cfg.CorePerAgg = 2, 2, 4, 1
	}
	perPod := cfg.EdgePerPod * cfg.HostsPerEdge
	cfg.Pods = (hosts + perPod - 1) / perPod
	if cfg.Pods < 2 {
		cfg.Pods = 2
	}
	return cfg
}
