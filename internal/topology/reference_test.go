package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// nestedTables is the routing model the flat tables replaced, kept as the
// reference they are compared against: node x node nested slices, one heap
// slice per (node, host) pair, a fresh BFS state per solve. It reads the link
// state of the Topology it shadows and never writes to it.
type nestedTables struct {
	t      *Topology
	routes [][][]int
	dist   [][]int
}

func newNestedTables(t *Topology) *nestedTables {
	n := len(t.nodes)
	r := &nestedTables{t: t, routes: make([][][]int, n), dist: make([][]int, n)}
	for i := range r.routes {
		r.routes[i] = make([][]int, n)
		r.dist[i] = make([]int, n)
		for j := range r.dist[i] {
			r.dist[i][j] = -1
		}
	}
	for _, host := range t.hosts {
		r.bfsFrom(host)
	}
	return r
}

func (r *nestedTables) bfsFrom(host packet.NodeID) (changed int) {
	n := len(r.t.nodes)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[host] = 0
	queue := []packet.NodeID{host}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range r.t.nodes[cur].Ports {
			if p.Up && dist[p.Peer] == -1 {
				dist[p.Peer] = dist[cur] + 1
				queue = append(queue, p.Peer)
			}
		}
	}
	for _, node := range r.t.nodes {
		if node.ID == host {
			continue
		}
		var ports []int
		if dist[node.ID] != -1 {
			for pi, p := range node.Ports {
				if p.Up && dist[p.Peer] == dist[node.ID]-1 {
					ports = append(ports, pi)
				}
			}
		}
		if !slices.Equal(r.routes[node.ID][host], ports) {
			changed++
		}
		r.routes[node.ID][host] = ports
		r.dist[node.ID][host] = dist[node.ID]
	}
	return changed
}

func (r *nestedTables) hostAffected(host, a, b packet.NodeID, up bool) bool {
	da, db := r.dist[a][host], r.dist[b][host]
	if da == -1 || db == -1 {
		return true
	}
	if up {
		return da != db
	}
	diff := da - db
	return diff == 1 || diff == -1
}

// setLinkState applies the change to the shadowed Topology through its own
// SetLinkState and re-solves the reference around that call exactly as the
// nested implementation did: affected hosts chosen from the pre-change
// distances, solved over the post-change link state. It returns both reroute
// counts.
func (r *nestedTables) setLinkState(a, b packet.NodeID, up bool) (got, want int) {
	pa, _, _ := r.t.LinkBetween(a, b)
	var affected []packet.NodeID
	if r.t.nodes[a].Ports[pa].Up != up {
		for _, host := range r.t.hosts {
			if r.hostAffected(host, a, b, up) {
				affected = append(affected, host)
			}
		}
	}
	got = r.t.SetLinkState(a, b, up)
	for _, host := range affected {
		want += r.bfsFrom(host)
	}
	return got, want
}

// check compares every (node, host) entry of the live flat tables with the
// reference.
func (r *nestedTables) check(t *testing.T, when string) {
	t.Helper()
	for _, n := range r.t.nodes {
		for _, h := range r.t.hosts {
			got, want := r.t.NextHopsOrNil(n.ID, h), r.routes[n.ID][h]
			if !slices.Equal(got, want) {
				t.Fatalf("%s: next hops %s -> %s = %v, reference %v", when, n.Name, r.t.nodes[h].Name, got, want)
			}
			if d := r.t.distTo(n.ID, h); d != r.dist[n.ID][h] {
				t.Fatalf("%s: dist %s -> %s = %d, reference %d", when, n.Name, r.t.nodes[h].Name, d, r.dist[n.ID][h])
			}
		}
	}
}

// baselineMetrics reads the unloaded-path metrics of a spread of host pairs;
// they must not move while links flap.
func baselineMetrics(topo *Topology) []int64 {
	hosts := topo.Hosts()
	stride := len(hosts)/16 + 1
	var out []int64
	for i := 0; i < len(hosts); i += stride {
		for j := len(hosts) - 1; j >= 0; j -= stride {
			if a, b := hosts[i], hosts[j]; a != b {
				out = append(out, int64(topo.HopCount(a, b)), int64(topo.PathOneWay(a, b, 1000)), int64(topo.MinPathRate(a, b)))
			}
		}
	}
	return out
}

type link struct{ a, b packet.NodeID }

func linkOf(a, b packet.NodeID) link { return link{min(a, b), max(a, b)} }

type flap struct {
	l  link
	up bool
}

// scriptedFlaps visits each way a link change reaches the leaf-column tables:
// a host uplink down and up; a leaf-to-spine link; a switch link flapping
// while a host uplink is down; every uplink of a leaf down, so its hosts are
// unreachable, with host uplinks flapping inside and outside the island. It
// ends with every link up.
func scriptedFlaps(topo *Topology) []flap {
	hosts := topo.Hosts()
	h, far := hosts[0], hosts[len(hosts)-1]
	leaf := topo.Node(h).Ports[0].Peer
	uplink, farUplink := linkOf(h, leaf), linkOf(far, topo.Node(far).Ports[0].Peer)
	var spines []link
	for _, p := range topo.Node(leaf).Ports {
		if topo.Node(p.Peer).Kind == Switch {
			spines = append(spines, linkOf(leaf, p.Peer))
		}
	}
	steps := []flap{
		{uplink, false}, {uplink, true},
		{spines[0], false}, {spines[0], true},
		{uplink, false}, {spines[0], false}, {spines[0], true}, {uplink, true},
	}
	for _, l := range spines {
		steps = append(steps, flap{l, false})
	}
	steps = append(steps, flap{uplink, false}, flap{farUplink, false}, flap{uplink, true}, flap{farUplink, true})
	for _, l := range spines {
		steps = append(steps, flap{l, true})
	}
	return steps
}

func allLinks(topo *Topology) []link {
	var links []link
	for _, n := range topo.Nodes() {
		for _, p := range n.Ports {
			if n.ID < p.Peer {
				links = append(links, link{n.ID, p.Peer})
			}
		}
	}
	return links
}

func TestFlatTablesMatchNestedReference(t *testing.T) {
	crossDC := T2Config()
	crossDC.NumToR, crossDC.HostsPerToR, crossDC.NumSpine = 2, 4, 2
	cases := []struct {
		name     string
		topo     *Topology
		flaps    int
		scripted bool
	}{
		{"T1", NewClos(T1Config()), 40, false},
		{"T2", NewT2(), 40, true},
		{"dumbbell", dumbbell(3, 100*units.Gbps, 40*units.Gbps), 40, false},
		{"crossdc", NewCrossDC(crossDC).Topology, 60, false},
		{"fattree64", NewFatTree(FatTreeForHosts(64, 100*units.Gbps, units.Microsecond)), 60, true},
		{"fattree1024", NewFatTree(FatTreeForHosts(1024, 100*units.Gbps, units.Microsecond)), 4, false},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "fattree1024" && testing.Short() {
				t.Skip("the nested reference takes seconds at 1024 hosts")
			}
			topo := c.topo
			ref := newNestedTables(topo)
			ref.check(t, "pristine")
			for _, a := range topo.Hosts() {
				for _, b := range topo.Hosts() {
					if a != b && topo.HopCount(a, b) != ref.dist[a][b] {
						t.Fatalf("HopCount(%d, %d) = %d, reference %d", a, b, topo.HopCount(a, b), ref.dist[a][b])
					}
				}
			}
			base := baselineMetrics(topo)

			rng := rand.New(rand.NewSource(int64(100 + ci)))
			links := allLinks(topo)
			var steps []flap
			if c.scripted {
				steps = scriptedFlaps(topo)
			}
			down := map[link]bool{}
			for i := 0; i < len(steps)+c.flaps; i++ {
				var l link
				var up bool
				if i < len(steps) {
					l, up = steps[i].l, steps[i].up
				} else {
					l = links[rng.Intn(len(links))]
					up = down[l] // toggle...
					if rng.Intn(8) == 0 {
						up = !up // ...or, now and then, ask for the state it has
					}
				}
				got, want := ref.setLinkState(l.a, l.b, up)
				when := fmt.Sprintf("flap %d (%s-%s up=%v)", i, topo.Node(l.a).Name, topo.Node(l.b).Name, up)
				if got != want {
					t.Fatalf("%s: SetLinkState = %d reroutes, reference %d", when, got, want)
				}
				down[l] = !up
				ref.check(t, when)
				if !slices.Equal(baselineMetrics(topo), base) {
					t.Fatalf("%s: baseline metrics moved", when)
				}
			}
			// Recover everything: the live tables return to the pristine ones.
			for l, isDown := range down {
				if isDown {
					if got, want := ref.setLinkState(l.a, l.b, true); got != want {
						t.Fatalf("recovering %v: SetLinkState = %d reroutes, reference %d", l, got, want)
					}
				}
			}
			ref.check(t, "all recovered")
			if !slices.Equal(topo.routes, topo.baseRoutes) || !slices.Equal(topo.dist, topo.baseDist) {
				t.Fatal("recovering every link did not restore the baseline tables")
			}
		})
	}
}

// BenchmarkFatTreeReroute1024's own cycle: the second and later repeats of a
// fail+recover allocate nothing.
func TestRerouteSteadyStateAllocFree(t *testing.T) {
	loop := rerouteLoop(t)
	if allocs := testing.AllocsPerRun(1, func() { loop(1) }); allocs != 0 {
		t.Fatalf("fail+recover cycle allocates %v objects, want 0", allocs)
	}
}

// Only hosts are routing destinations: the tables have no column for a
// switch, and every accessor must still answer for one as the all-empty row
// of the node x node tables did.
func TestNonHostDestination(t *testing.T) {
	topo := NewT2()
	host := topo.Hosts()[0]
	tor := topo.Node(host).Ports[0].Peer
	spine := mustNode(t, topo, "spine0")
	if got := topo.NextHopsOrNil(host, tor); got != nil {
		t.Fatalf("NextHopsOrNil(host, switch) = %v, want nil", got)
	}
	if got := topo.NextHopsOrNil(tor, spine); got != nil {
		t.Fatalf("NextHopsOrNil(switch, switch) = %v, want nil", got)
	}
	if topo.HopCount(tor, tor) != 0 {
		t.Fatal("HopCount(switch, same switch) should be 0")
	}
	noRoute := fmt.Sprintf("topology: no route from %s to %s", topo.Node(host).Name, topo.Node(tor).Name)
	for name, c := range map[string]struct {
		f    func()
		want string
	}{
		"NextHops":     {func() { topo.NextHops(host, tor) }, noRoute},
		"EgressPort":   {func() { topo.EgressPort(host, &packet.Flow{Dst: tor}) }, noRoute},
		"baseNextHops": {func() { topo.baseNextHops(host, tor) }, noRoute},
		"PathOneWay":   {func() { topo.PathOneWay(host, tor, 1000) }, noRoute},
		"MinPathRate":  {func() { topo.MinPathRate(host, tor) }, noRoute},
		"HopCount":     {func() { topo.HopCount(host, tor) }, fmt.Sprintf("topology: no path from %d to %d", host, tor)},
	} {
		if got := panicMessage(c.f); got != c.want {
			t.Errorf("%s toward a switch panicked with %q, want %q", name, got, c.want)
		}
	}
}

// The set index is 16 bits wide; running out of it is reported, not wrapped.
func TestInternSetIndexOverflowPanics(t *testing.T) {
	topo := NewSingleSwitch(SingleSwitchConfig{NumHosts: 2, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond})
	for len(topo.sets) <= 1<<16-1 {
		topo.sets = append(topo.sets, []int{len(topo.sets)})
	}
	want := "topology: more than 65535 distinct next-hop sets"
	if got := panicMessage(func() { topo.intern([]int{-1}, 0, 0) }); got != want {
		t.Fatalf("panic %q, want %q", got, want)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
