package topology

import (
	"testing"

	"bfc/internal/packet"
	"bfc/internal/units"
)

func dynClos(t *testing.T) *Topology {
	t.Helper()
	return NewClos(ClosConfig{
		NumToR: 3, NumSpine: 3, HostsPerToR: 4,
		LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
}

func mustNode(t testing.TB, topo *Topology, name string) packet.NodeID {
	t.Helper()
	id, ok := topo.NodeByName(name)
	if !ok {
		t.Fatalf("no node %q", name)
	}
	return id
}

// snapshotRoutes deep-copies every next-hop set for later comparison.
func snapshotRoutes(topo *Topology) map[[2]packet.NodeID][]int {
	snap := map[[2]packet.NodeID][]int{}
	for _, n := range topo.Nodes() {
		for _, h := range topo.Hosts() {
			if n.ID == h {
				continue
			}
			snap[[2]packet.NodeID{n.ID, h}] = append([]int(nil), topo.NextHopsOrNil(n.ID, h)...)
		}
	}
	return snap
}

// checkLoopFree walks every equal-cost next hop from every node toward every
// host, asserting each hop strictly approaches the destination (no loops, no
// dead ends on routed entries).
func checkLoopFree(t *testing.T, topo *Topology) {
	t.Helper()
	var walk func(cur, dst packet.NodeID, budget int)
	walk = func(cur, dst packet.NodeID, budget int) {
		if cur == dst {
			return
		}
		if budget < 0 {
			t.Fatalf("routing loop: path from %d toward %d exceeds the node count", cur, dst)
		}
		for _, pi := range topo.NextHopsOrNil(cur, dst) {
			p := topo.Node(cur).Ports[pi]
			if !p.Up {
				t.Fatalf("route from %d to %d uses a down link", cur, dst)
			}
			walk(p.Peer, dst, budget-1)
		}
	}
	for _, n := range topo.Nodes() {
		for _, h := range topo.Hosts() {
			if n.ID != h {
				walk(n.ID, h, topo.NumNodes())
			}
		}
	}
}

func TestSetLinkStateFailure(t *testing.T) {
	topo := dynClos(t)
	tor0 := mustNode(t, topo, "tor0")
	spine0 := mustNode(t, topo, "spine0")

	changed := topo.SetLinkState(tor0, spine0, false)
	if changed == 0 {
		t.Fatal("failing a core link rewrote no routes")
	}

	// No next-hop set anywhere may use the down link, and all surviving
	// routes stay loop-free.
	pa, pb, ok := topo.LinkBetween(tor0, spine0)
	if !ok {
		t.Fatal("link vanished")
	}
	if topo.Node(tor0).Ports[pa].Up || topo.Node(spine0).Ports[pb].Up {
		t.Fatal("ports still marked up after failure")
	}
	for _, h := range topo.Hosts() {
		for _, pi := range topo.NextHopsOrNil(tor0, h) {
			if pi == pa {
				t.Fatalf("tor0 still routes toward host %d over the failed link", h)
			}
		}
	}
	checkLoopFree(t, topo)

	// spine0's direct path to tor0's rack is gone; the recomputed shortest
	// path detours down through another rack and back up (1 hop -> 4 hops),
	// and must not use the failed port.
	pSpine0ToTor0, _, _ := topo.LinkBetween(spine0, tor0)
	for _, h := range topo.Hosts() {
		hops := topo.NextHopsOrNil(spine0, h)
		if len(hops) == 0 {
			t.Fatalf("spine0 lost its route to host %d entirely", h)
		}
		underTor0 := topo.Node(h).Ports[0].Peer == tor0
		for _, pi := range hops {
			if underTor0 && pi == pSpine0ToTor0 {
				t.Fatalf("spine0 still routes to host %d over the failed link", h)
			}
		}
	}

	// Idempotence: re-failing is a no-op.
	if got := topo.SetLinkState(tor0, spine0, false); got != 0 {
		t.Fatalf("re-failing changed %d routes", got)
	}
}

// TestSetLinkStateRehashConsistency verifies that after a failure, flows
// still map deterministically onto surviving equal-cost ports, and that the
// chosen port is always a member of the ECMP set.
func TestSetLinkStateRehashConsistency(t *testing.T) {
	topo := dynClos(t)
	tor0 := mustNode(t, topo, "tor0")
	spine0 := mustNode(t, topo, "spine0")
	hosts := topo.Hosts()
	dst := hosts[len(hosts)-1] // a host in the last rack
	flows := make([]*packet.Flow, 50)
	for i := range flows {
		flows[i] = &packet.Flow{
			ID: packet.FlowID(i), Src: hosts[0], Dst: dst,
			SrcPort: uint16(10000 + i), DstPort: 4791,
		}
	}
	topo.SetLinkState(tor0, spine0, false)
	for _, f := range flows {
		first := topo.EgressPort(tor0, f)
		if again := topo.EgressPort(tor0, f); again != first {
			t.Fatalf("flow %d rehashes inconsistently: %d then %d", f.ID, first, again)
		}
		member := false
		for _, pi := range topo.NextHops(tor0, f.Dst) {
			if pi == first {
				member = true
			}
		}
		if !member {
			t.Fatalf("flow %d hashed onto port %d outside the ECMP set", f.ID, first)
		}
	}
}

func TestSetLinkStateRecoveryRestoresRoutes(t *testing.T) {
	topo := dynClos(t)
	before := snapshotRoutes(topo)
	tor0 := mustNode(t, topo, "tor0")
	spine0 := mustNode(t, topo, "spine0")
	tor1 := mustNode(t, topo, "tor1")
	spine1 := mustNode(t, topo, "spine1")

	// Fail two links, then recover in the opposite order; the final tables
	// must equal the originals entry for entry.
	topo.SetLinkState(tor0, spine0, false)
	topo.SetLinkState(tor1, spine1, false)
	checkLoopFree(t, topo)
	if changed := topo.SetLinkState(tor1, spine1, true); changed == 0 {
		t.Fatal("recovery rewrote no routes")
	}
	topo.SetLinkState(tor0, spine0, true)

	after := snapshotRoutes(topo)
	if len(after) != len(before) {
		t.Fatalf("route table size changed: %d vs %d", len(after), len(before))
	}
	for key, want := range before {
		got := after[key]
		if len(got) != len(want) {
			t.Fatalf("route %v: %v after recovery, want %v", key, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("route %v: %v after recovery, want %v", key, got, want)
			}
		}
	}
	checkLoopFree(t, topo)
}

// TestBaselinePathsSurviveFailure pins the ideal-FCT contract: the unloaded
// path metrics keep answering from the pristine snapshot while live routing
// changes underneath.
func TestBaselinePathsSurviveFailure(t *testing.T) {
	topo := dynClos(t)
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	mtu := units.Bytes(1000)
	rtt := topo.PathRTT(src, dst, mtu)
	hops := topo.HopCount(src, dst)
	rate := topo.MinPathRate(src, dst)

	tor0 := mustNode(t, topo, "tor0")
	spine0 := mustNode(t, topo, "spine0")
	topo.SetLinkState(tor0, spine0, false)

	if got := topo.PathRTT(src, dst, mtu); got != rtt {
		t.Fatalf("baseline RTT changed under failure: %v vs %v", got, rtt)
	}
	if got := topo.HopCount(src, dst); got != hops {
		t.Fatalf("baseline hop count changed under failure: %d vs %d", got, hops)
	}
	if got := topo.MinPathRate(src, dst); got != rate {
		t.Fatalf("baseline path rate changed under failure: %v vs %v", got, rate)
	}
}

func TestSetLinkParams(t *testing.T) {
	topo := dynClos(t)
	tor0 := mustNode(t, topo, "tor0")
	spine0 := mustNode(t, topo, "spine0")
	topo.SetLinkParams(tor0, spine0, 10*units.Gbps, 5*units.Microsecond)
	pa, pb, _ := topo.LinkBetween(tor0, spine0)
	a, b := topo.Node(tor0).Ports[pa], topo.Node(spine0).Ports[pb]
	for _, p := range []Port{a, b} {
		if p.Rate != 10*units.Gbps || p.Delay != 5*units.Microsecond {
			t.Fatalf("port not degraded: %+v", p)
		}
	}
}
