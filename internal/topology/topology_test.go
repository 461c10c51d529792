package topology

import (
	"fmt"
	"testing"
	"testing/quick"

	"bfc/internal/packet"
	"bfc/internal/units"
)

func TestT1Shape(t *testing.T) {
	topo := NewClos(T1Config())
	// 8 spines + 8 ToRs + 128 hosts
	if got := topo.NumNodes(); got != 8+8+128 {
		t.Fatalf("T1 node count = %d, want 144", got)
	}
	if got := len(topo.Hosts()); got != 128 {
		t.Fatalf("T1 host count = %d, want 128", got)
	}
	// Links: 8 ToR x 8 spine + 128 host links = 64 + 128 = 192.
	if got := topo.LinkCount(); got != 192 {
		t.Fatalf("T1 link count = %d, want 192", got)
	}
	// Spot-check tiers.
	spines, tors, hosts := 0, 0, 0
	for _, n := range topo.Nodes() {
		switch n.Tier {
		case TierSpine:
			spines++
		case TierToR:
			tors++
		case TierHost:
			hosts++
		}
	}
	if spines != 8 || tors != 8 || hosts != 128 {
		t.Fatalf("tier counts spine=%d tor=%d host=%d", spines, tors, hosts)
	}
}

func TestT2Shape(t *testing.T) {
	topo := NewT2()
	if got := len(topo.Hosts()); got != 64 {
		t.Fatalf("T2 host count = %d, want 64", got)
	}
	if got := topo.NumNodes(); got != 8+4+64 {
		t.Fatalf("T2 node count = %d, want 76", got)
	}
}

func TestPaperRTT(t *testing.T) {
	// §4.1: links are 100 Gbps, 1 us propagation, MTU 1 KB; the paper quotes
	// a max end-to-end base RTT of 8 us and a 1-hop RTT of 2 us.
	topo := NewT2()
	hosts := topo.Hosts()
	// Hosts 0 and 1 share a ToR: 2 hops each way.
	sameToR := topo.PathRTT(hosts[0], hosts[1], 1000)
	if sameToR < 4*units.Microsecond || sameToR > 5*units.Microsecond {
		t.Fatalf("same-ToR RTT = %v, want ~4us", sameToR)
	}
	// Hosts in different racks: 4 hops each way -> ~8 us.
	cross := topo.PathRTT(hosts[0], hosts[63], 1000)
	if cross < 8*units.Microsecond || cross > 9*units.Microsecond {
		t.Fatalf("cross-rack RTT = %v, want ~8us", cross)
	}
	if hops := topo.HopCount(hosts[0], hosts[63]); hops != 4 {
		t.Fatalf("cross-rack hop count = %d, want 4", hops)
	}
	if hops := topo.HopCount(hosts[0], hosts[1]); hops != 2 {
		t.Fatalf("same-ToR hop count = %d, want 2", hops)
	}
}

func TestECMPConsistencyAndSpread(t *testing.T) {
	topo := NewT2()
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[40] // different racks
	// Find the ToR of src (its single uplink peer).
	tor := topo.Node(src).Ports[0].Peer
	next := topo.NextHops(tor, dst)
	if len(next) != 8 {
		t.Fatalf("ToR should have 8 equal-cost uplinks toward a remote host, got %d", len(next))
	}
	// Same flow always picks the same port; different flows spread.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		f := &packet.Flow{Src: src, Dst: dst, SrcPort: uint16(i), DstPort: 4791}
		p1 := topo.EgressPort(tor, f)
		p2 := topo.EgressPort(tor, f)
		if p1 != p2 {
			t.Fatal("ECMP choice must be deterministic per flow")
		}
		seen[p1] = true
	}
	if len(seen) < 4 {
		t.Fatalf("ECMP spread too narrow: only %d of 8 uplinks used", len(seen))
	}
}

func TestHostRouteIsDirect(t *testing.T) {
	topo := NewT2()
	hosts := topo.Hosts()
	// From a ToR, the route to a locally attached host must be the single
	// host-facing port, not an uplink.
	h := hosts[5]
	tor := topo.Node(h).Ports[0].Peer
	next := topo.NextHops(tor, h)
	if len(next) != 1 {
		t.Fatalf("route from ToR to attached host should have 1 port, got %d", len(next))
	}
	port := topo.Node(tor).Ports[next[0]]
	if port.Peer != h {
		t.Fatal("ToR route to attached host does not point at the host")
	}
}

func TestSingleSwitchAndDumbbell(t *testing.T) {
	star := NewSingleSwitch(SingleSwitchConfig{NumHosts: 4, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	if len(star.Hosts()) != 4 || star.NumNodes() != 5 {
		t.Fatal("star topology shape wrong")
	}
	if star.HopCount(star.Hosts()[0], star.Hosts()[3]) != 2 {
		t.Fatal("star host-to-host hop count should be 2")
	}

	db := dumbbell(2, 100*units.Gbps, 40*units.Gbps)
	if len(db.Hosts()) != 4 {
		t.Fatal("dumbbell should have 4 hosts")
	}
	// Cross-side path passes the bottleneck.
	if r := db.MinPathRate(db.Hosts()[0], db.Hosts()[1]); r != 40*units.Gbps {
		t.Fatalf("cross-side min rate = %v, want 40Gbps", r)
	}
	if r := db.HostRate(db.Hosts()[0]); r != 100*units.Gbps {
		t.Fatalf("host rate = %v, want 100Gbps", r)
	}
}

// dumbbell builds two switches joined by one bottleneck link, with hosts
// hosts on each side (l0 r0 l1 r1 ...), every link 1 µs long.
func dumbbell(hosts int, edge, bottleneck units.Rate) *Topology {
	b := &Builder{}
	left := b.AddNode(Switch, TierToR, "left")
	right := b.AddNode(Switch, TierToR, "right")
	b.AddLink(left, right, bottleneck, units.Microsecond)
	for h := 0; h < hosts; h++ {
		b.AddLink(b.AddNode(Host, TierHost, fmt.Sprintf("l%d", h)), left, edge, units.Microsecond)
		b.AddLink(b.AddNode(Host, TierHost, fmt.Sprintf("r%d", h)), right, edge, units.Microsecond)
	}
	return b.Build()
}

func TestCrossDC(t *testing.T) {
	dc := T2Config()
	dc.NumToR, dc.HostsPerToR, dc.NumSpine = 2, 4, 2 // small for test speed
	x := NewCrossDC(dc)
	if len(x.HostsDC1) != 8 || len(x.HostsDC2) != 8 {
		t.Fatalf("cross-DC host partition %d/%d, want 8/8", len(x.HostsDC1), len(x.HostsDC2))
	}
	if len(x.Hosts()) != 16 {
		t.Fatalf("total hosts = %d, want 16", len(x.Hosts()))
	}
	// Inter-DC RTT is dominated by the 200 us gateway link: 2*200us = 400us.
	rtt := x.PathRTT(x.HostsDC1[0], x.HostsDC2[0], 1000)
	if rtt < 400*units.Microsecond || rtt > 420*units.Microsecond {
		t.Fatalf("inter-DC RTT = %v, want ~400us", rtt)
	}
	// Intra-DC RTT stays small.
	intra := x.PathRTT(x.HostsDC1[0], x.HostsDC1[7], 1000)
	if intra > 10*units.Microsecond {
		t.Fatalf("intra-DC RTT = %v, want < 10us", intra)
	}
	// Inter-DC paths traverse both gateways.
	gw, ok := x.NodeByName("gw0")
	if !ok {
		t.Fatal("gateway gw0 not found")
	}
	if topoTier := x.Node(gw).Tier; topoTier != TierGateway {
		t.Fatalf("gateway tier = %v", topoTier)
	}
}

func TestValidation(t *testing.T) {
	bad := T1Config()
	bad.NumToR = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error for zero ToRs")
	}
	bad2 := T1Config()
	bad2.LinkRate = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected validation error for zero rate")
	}
	assertPanics(t, func() { NewClos(bad) })
	assertPanics(t, func() { NewSingleSwitch(SingleSwitchConfig{NumHosts: 1, LinkRate: units.Gbps}) })
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

// Property: in any (small) Clos, every host pair has a route from the source
// host's ToR, path hop counts are symmetric, and ECMP port choices are always
// valid port indexes on shortest paths.
func TestRoutingProperties(t *testing.T) {
	prop := func(nTor, nSpine, nHosts uint8, srcIdx, dstIdx uint16) bool {
		cfg := ClosConfig{
			NumToR:      int(nTor%3) + 1,
			NumSpine:    int(nSpine%3) + 1,
			HostsPerToR: int(nHosts%3) + 1,
			LinkRate:    100 * units.Gbps,
			LinkDelay:   units.Microsecond,
		}
		topo := NewClos(cfg)
		hosts := topo.Hosts()
		src := hosts[int(srcIdx)%len(hosts)]
		dst := hosts[int(dstIdx)%len(hosts)]
		if src == dst {
			return true
		}
		if topo.HopCount(src, dst) != topo.HopCount(dst, src) {
			return false
		}
		f := &packet.Flow{Src: src, Dst: dst, SrcPort: srcIdx, DstPort: dstIdx}
		cur := src
		steps := 0
		for cur != dst {
			port := topo.EgressPort(cur, f)
			node := topo.Node(cur)
			if port < 0 || port >= len(node.Ports) {
				return false
			}
			cur = node.Ports[port].Peer
			steps++
			if steps > 10 {
				return false // routing loop
			}
		}
		return steps == topo.HopCount(src, dst)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
