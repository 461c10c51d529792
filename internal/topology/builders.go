package topology

import (
	"fmt"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// ClosConfig parameterizes a two-tier leaf-spine (folded Clos) topology like
// the paper's T1 and T2.
type ClosConfig struct {
	NumToR      int
	NumSpine    int
	HostsPerToR int
	// LinkRate applies to every link (host-ToR and ToR-spine), as in §4.1.
	LinkRate units.Rate
	// LinkDelay is the per-link propagation delay.
	LinkDelay units.Time
}

// Validate checks the configuration.
func (c ClosConfig) Validate() error {
	if c.NumToR <= 0 || c.NumSpine <= 0 || c.HostsPerToR <= 0 {
		return fmt.Errorf("topology: Clos dimensions must be positive (got ToR=%d spine=%d hosts/ToR=%d)",
			c.NumToR, c.NumSpine, c.HostsPerToR)
	}
	if c.LinkRate <= 0 {
		return fmt.Errorf("topology: link rate must be positive")
	}
	if c.LinkDelay < 0 {
		return fmt.Errorf("topology: link delay must be non-negative")
	}
	return nil
}

// NewClos builds a two-tier Clos: every ToR connects to every spine with a
// single link, and HostsPerToR hosts hang off each ToR.
func NewClos(c ClosConfig) *Topology {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	b := &Builder{}
	b.grow(c.NumSpine+c.NumToR*(1+c.HostsPerToR), c.NumToR*(c.NumSpine+c.HostsPerToR))
	spines := make([]packet.NodeID, 0, c.NumSpine)
	for s := 0; s < c.NumSpine; s++ {
		spines = append(spines, b.node(Switch, TierSpine, "spine%d", s))
	}
	for r := 0; r < c.NumToR; r++ {
		tor := b.node(Switch, TierToR, "tor%d", r)
		for _, s := range spines {
			b.AddLink(tor, s, c.LinkRate, c.LinkDelay)
		}
		for h := 0; h < c.HostsPerToR; h++ {
			host := b.node(Host, TierHost, "h%d-%d", r, h)
			b.AddLink(host, tor, c.LinkRate, c.LinkDelay)
		}
	}
	return b.Build()
}

// The paper's evaluation topologies (§4.1): all links 100 Gbps with 1 us
// propagation delay; 2:1 oversubscription.

// T1Config returns the large topology: 128 hosts, 8 ToRs x 16 hosts, 8
// spines.
func T1Config() ClosConfig {
	return ClosConfig{
		NumToR:      8,
		NumSpine:    8,
		HostsPerToR: 16,
		LinkRate:    100 * units.Gbps,
		LinkDelay:   1 * units.Microsecond,
	}
}

// T2Config returns the small topology: 64 hosts, 4 ToRs x 16 hosts, 8 spines.
func T2Config() ClosConfig {
	return ClosConfig{
		NumToR:      4,
		NumSpine:    8,
		HostsPerToR: 16,
		LinkRate:    100 * units.Gbps,
		LinkDelay:   1 * units.Microsecond,
	}
}

// NewT2 builds the paper's T2 topology.
func NewT2() *Topology { return NewClos(T2Config()) }

// SingleSwitchConfig parameterizes a star topology: n hosts attached to one
// switch. Used by micro-benchmarks and the Fig 10 buffer-management
// experiment.
type SingleSwitchConfig struct {
	NumHosts  int
	LinkRate  units.Rate
	LinkDelay units.Time
}

// NewSingleSwitch builds a star topology.
func NewSingleSwitch(c SingleSwitchConfig) *Topology {
	if c.NumHosts < 2 {
		panic("topology: single-switch topology needs at least 2 hosts")
	}
	if c.LinkRate <= 0 {
		panic("topology: link rate must be positive")
	}
	b := &Builder{}
	b.grow(1+c.NumHosts, c.NumHosts)
	sw := b.AddNode(Switch, TierToR, "sw0")
	for h := 0; h < c.NumHosts; h++ {
		host := b.node(Host, TierHost, "h%d", h)
		b.AddLink(host, sw, c.LinkRate, c.LinkDelay)
	}
	return b.Build()
}

// The §4.2 inter-DC link joining the two gateways: 100 Gbps with 200 us
// one-way delay.
const (
	gatewayRate  = 100 * units.Gbps
	gatewayDelay = 200 * units.Microsecond
)

// CrossDC holds the built topology plus the host partition, so workloads can
// distinguish intra- from inter-DC flows.
type CrossDC struct {
	*Topology
	// HostsDC1 and HostsDC2 are the hosts in each data center.
	HostsDC1, HostsDC2 []packet.NodeID
}

// NewCrossDC builds the §4.2 cross-data-center topology: two copies of dc,
// each with a gateway switch linked to its spines at the DC link rate, and
// the gateways joined by the long inter-DC link.
func NewCrossDC(dc ClosConfig) *CrossDC {
	if err := dc.Validate(); err != nil {
		panic(err)
	}
	b := &Builder{}
	b.grow(2*(1+dc.NumSpine+dc.NumToR*(1+dc.HostsPerToR)), 2*(dc.NumSpine+dc.NumToR*(dc.NumSpine+dc.HostsPerToR))+1)
	out := &CrossDC{}

	buildDC := func(dcIdx int) (hosts []packet.NodeID, gateway packet.NodeID) {
		gw := b.node(Switch, TierGateway, "gw%d", dcIdx)
		spines := make([]packet.NodeID, 0, dc.NumSpine)
		for s := 0; s < dc.NumSpine; s++ {
			spine := b.node(Switch, TierSpine, "dc%d-spine%d", dcIdx, s)
			b.AddLink(spine, gw, dc.LinkRate, dc.LinkDelay)
			spines = append(spines, spine)
		}
		for r := 0; r < dc.NumToR; r++ {
			tor := b.node(Switch, TierToR, "dc%d-tor%d", dcIdx, r)
			for _, spine := range spines {
				b.AddLink(tor, spine, dc.LinkRate, dc.LinkDelay)
			}
			for h := 0; h < dc.HostsPerToR; h++ {
				host := b.node(Host, TierHost, "dc%d-h%d-%d", dcIdx, r, h)
				b.AddLink(host, tor, dc.LinkRate, dc.LinkDelay)
				hosts = append(hosts, host)
			}
		}
		return hosts, gw
	}

	h1, g1 := buildDC(0)
	h2, g2 := buildDC(1)
	b.AddLink(g1, g2, gatewayRate, gatewayDelay)
	out.HostsDC1, out.HostsDC2 = h1, h2
	out.Topology = b.Build()
	return out
}
