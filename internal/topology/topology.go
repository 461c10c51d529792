// Package topology describes simulated network topologies: the nodes (hosts
// and switches), the links between them (rate and propagation delay), and the
// routing tables the switches use.
//
// Routing is computed at construction time as equal-cost shortest paths
// toward every host; a flow picks among equal-cost egress ports by hashing
// its 5-tuple (ECMP), which keeps all packets of a flow on one path — a
// requirement for both BFC's per-flow pausing and Go-Back-N at the NIC.
//
// Topologies additionally support mid-run dynamics for the scenario engine
// (internal/scenario): SetLinkState fails or recovers a link and incrementally
// recomputes the ECMP columns whose shortest-path DAGs the link touched, and
// SetLinkParams degrades a link's rate or latency in place.
//
// Every host has exactly one uplink, and the switch at its other end is the
// host's leaf. Nothing routes through a host, so from any node other than host
// h and its leaf ℓ the next hops toward h are those toward ℓ, one hop short.
// The routing tables therefore keep one column per leaf, not per host: one
// row per node, one column per leaf plus column 0, never written, for every
// destination that is not a host; per entry a uint16 index into the node's
// interned next-hop port sets and an int16 hop count toward the leaf. A lookup
// toward h answers from ℓ's column, except at ℓ itself, which answers with its
// port to h, and while h's uplink is down, when h's entry sends every node to
// column 0: no route. Interned sets are immutable and append-only, so the
// slices NextHops hands out stay valid, and two entries of one node hold equal
// indexes exactly when their port sets are equal — which is how a reroute
// counts the sets it changed. Index 0 is the empty set: no route.
package topology

import (
	"fmt"
	"math"
	"slices"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// Kind distinguishes hosts from switches.
type Kind uint8

const (
	// Host is a server with a NIC and a single uplink.
	Host Kind = iota
	// Switch is a multi-port switch.
	Switch
)

// Tier labels switch roles for statistics (the paper reports PFC pause time
// separately for ToR→Spine and Spine→ToR links).
type Tier uint8

const (
	// TierHost marks host nodes.
	TierHost Tier = iota
	// TierToR marks top-of-rack switches.
	TierToR
	// TierSpine marks spine switches.
	TierSpine
	// TierGateway marks cross-data-center gateway switches.
	TierGateway
	// TierAgg marks the aggregation (middle) switches of a three-tier
	// fat-tree; the top tier reuses TierSpine. Appended after TierGateway so
	// existing tier values (and the statistics keyed on them) are unchanged.
	TierAgg
)

func (t Tier) String() string {
	switch t {
	case TierHost:
		return "Host"
	case TierToR:
		return "ToR"
	case TierSpine:
		return "Spine"
	case TierGateway:
		return "Gateway"
	case TierAgg:
		return "Agg"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// Port is one side of a link attached to a node.
type Port struct {
	// Peer is the node at the other end, and PeerPort the port index there.
	Peer     packet.NodeID
	PeerPort int
	// Rate and Delay describe the link (both directions are symmetric).
	Rate  units.Rate
	Delay units.Time
	// Up marks the link operational. Both Port copies of a link share the
	// same state; SetLinkState flips them together.
	Up bool
}

// Node is a host or switch.
type Node struct {
	ID    packet.NodeID
	Kind  Kind
	Tier  Tier
	Name  string
	Ports []Port
}

// Topology describes a network. The node and link set is fixed after
// construction; link state (up/down) and link parameters (rate, delay) may
// change mid-run through SetLinkState and SetLinkParams, which keep the
// routing tables consistent. A Topology must not be shared between
// simulations that mutate link state, and SetLinkState must not run beside
// any other call on the same Topology: it rewrites the live tables through
// scratch buffers the Topology owns. (The sharded engine calls it from the
// coordinator, with every shard parked at a barrier.)
type Topology struct {
	Name  string
	nodes []*Node
	hosts []packet.NodeID

	// leaves[c-1] is the leaf of column c in the tables below: a switch at
	// the other end of some host's uplink, in order of first appearance.
	leaves []packet.NodeID
	// dests[node] is how the tables answer for node as a destination.
	dests []dest
	// upHosts[c] counts the hosts of column c's leaf whose uplink is up.
	upHosts []int32
	// sets[node] holds the node's interned next-hop port sets (see the
	// package comment); sets[node][0] is the empty set.
	sets [][][]int
	// routes[at(node, c)] indexes sets[node]: the egress ports on equal-cost
	// shortest paths from node toward column c's leaf. The leaf's own row
	// holds the empty set.
	routes []uint16
	// dist, indexed like routes, is the hop count of those paths: 0 at the
	// leaf, -1 where there is none.
	dist []int16

	// baseRoutes and baseDist are the pristine (all links up) tables.
	// Forwarding uses the live tables; the unloaded-path metrics
	// (PathOneWay, MinPathRate, HopCount) use the baseline, so ideal-FCT
	// denominators stay well-defined and constant while scenario link events
	// reshape the live routes. They share the live tables' arrays until the
	// first link state change (baseShared), which copies them.
	baseRoutes []uint16
	baseDist   []int16
	baseShared bool

	// Scratch reused by every solve, so that a reroute allocates only when
	// it produces a port set the node never had.
	bfsDist  []int32
	bfsQueue []packet.NodeID
	bfsPorts []int
}

// dest is a node as a routing destination (see the package comment).
type dest struct {
	// leaf is a host's leaf, and a switch itself.
	leaf packet.NodeID
	// col is 1 + the index of a host's leaf in leaves; 0 for a switch.
	col int32
	// liveCol is col, or 0 while the host's uplink is down: the column live
	// lookups read, where column 0 answers no route.
	liveCol int32
	// set indexes sets[leaf]: the one port from a host's leaf to the host.
	set uint16
	// liveSet is set, or 0 (the empty set) while the host's uplink is down.
	liveSet uint16
}

// uplinkPort is a host's only next-hop set: its port 0.
var uplinkPort = []int{0}

// Nodes returns all nodes, indexed by NodeID.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Node returns the node with the given ID.
func (t *Topology) Node(id packet.NodeID) *Node { return t.nodes[id] }

// Hosts returns the IDs of all host nodes.
func (t *Topology) Hosts() []packet.NodeID { return t.hosts }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Builder accumulates nodes and links before routing is computed. Every
// built-in fabric is made with one; a fabric of another shape can be too.
type Builder struct {
	name  string
	nodes []*Node
}

// NewBuilder starts an empty topology with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddNode adds a node and returns its ID: IDs are dense, in the order added.
func (b *Builder) AddNode(kind Kind, tier Tier, name string) packet.NodeID {
	id := packet.NodeID(len(b.nodes))
	b.nodes = append(b.nodes, &Node{ID: id, Kind: kind, Tier: tier, Name: name})
	return id
}

// AddLink connects x and y with a bidirectional link: each gains its next port.
func (b *Builder) AddLink(x, y packet.NodeID, rate units.Rate, delay units.Time) {
	if rate <= 0 || delay < 0 {
		panic("topology: invalid link parameters")
	}
	nx, ny := b.nodes[x], b.nodes[y]
	px, py := len(nx.Ports), len(ny.Ports)
	nx.Ports = append(nx.Ports, Port{Peer: y, PeerPort: py, Rate: rate, Delay: delay, Up: true})
	ny.Ports = append(ny.Ports, Port{Peer: x, PeerPort: px, Rate: rate, Delay: delay, Up: true})
}

// Build computes routing tables and returns the immutable topology. Every
// host must have exactly one link, to a switch.
func (b *Builder) Build() *Topology {
	t := &Topology{Name: b.name, nodes: b.nodes}
	for _, n := range b.nodes {
		if n.Kind == Host {
			t.hosts = append(t.hosts, n.ID)
			if len(n.Ports) != 1 {
				panic(fmt.Sprintf("topology: host %s must have exactly one uplink, has %d", n.Name, len(n.Ports)))
			}
			if b.nodes[n.Ports[0].Peer].Kind == Host {
				panic(fmt.Sprintf("topology: host %s must uplink to a switch", n.Name))
			}
		}
	}
	t.computeRoutes()
	t.baseRoutes, t.baseDist, t.baseShared = t.routes, t.dist, true
	return t
}

// computeRoutes finds every host's leaf and runs a reverse BFS from every
// leaf, recording for each node the set of egress ports that lie on a
// shortest path toward that leaf.
func (t *Topology) computeRoutes() {
	n := len(t.nodes)
	t.sets = make([][][]int, n)
	for i := range t.sets {
		t.sets[i] = [][]int{nil}
	}
	t.dests = make([]dest, n)
	for i := range t.dests {
		t.dests[i].leaf = packet.NodeID(i)
	}
	colOf := make([]int32, n)
	t.upHosts = []int32{0}
	for _, host := range t.hosts {
		up := t.nodes[host].Ports[0]
		if colOf[up.Peer] == 0 {
			t.leaves = append(t.leaves, up.Peer)
			t.upHosts = append(t.upHosts, 0)
			colOf[up.Peer] = int32(len(t.leaves))
		}
		t.bfsPorts = append(t.bfsPorts[:0], up.PeerPort)
		col, set := colOf[up.Peer], t.intern(up.Peer, t.bfsPorts, 0)
		t.dests[host] = dest{leaf: up.Peer, col: col, liveCol: col, set: set, liveSet: set}
		t.upHosts[colOf[up.Peer]]++
	}
	t.routes = make([]uint16, n*(len(t.leaves)+1))
	t.dist = make([]int16, len(t.routes))
	for i := range t.dist {
		t.dist[i] = -1
	}
	t.bfsDist = make([]int32, n)
	t.bfsQueue = make([]packet.NodeID, 0, n)
	for c := range t.leaves {
		t.solve(int32(c + 1))
	}
}

// at returns the table index of (node, column col).
func (t *Topology) at(node packet.NodeID, col int32) int {
	return int(node)*(len(t.leaves)+1) + int(col)
}

// solve recomputes the shortest-path DAG toward column col's leaf over the
// currently-up links and installs it, returning the number of rows whose
// next-hop set changed. Unreachable nodes get the empty port set and distance
// -1.
func (t *Topology) solve(col int32) (changed int) {
	leaf := t.leaves[col-1]
	dist := t.bfsDist
	for i := range dist {
		dist[i] = -1
	}
	dist[leaf] = 0
	queue := append(t.bfsQueue[:0], leaf)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, p := range t.nodes[cur].Ports {
			if p.Up && dist[p.Peer] == -1 {
				dist[p.Peer] = dist[cur] + 1
				queue = append(queue, p.Peer)
			}
		}
	}
	// BFS order is distance order, so the last node reached is a farthest one.
	if dist[queue[len(queue)-1]] > math.MaxInt16 {
		panic("topology: path length overflows the int16 distance table")
	}
	// A node's next hops toward the leaf are the neighbors one step closer.
	for _, node := range t.nodes {
		at := t.at(node.ID, col)
		t.dist[at] = int16(dist[node.ID])
		if node.ID == leaf {
			continue
		}
		ports := t.bfsPorts[:0]
		if dist[node.ID] != -1 {
			for pi, p := range node.Ports {
				if p.Up && dist[p.Peer] == dist[node.ID]-1 {
					ports = append(ports, pi)
				}
			}
		}
		t.bfsPorts = ports
		if set := t.intern(node.ID, ports, t.routes[at]); set != t.routes[at] {
			changed++
			t.routes[at] = set
		}
	}
	return changed
}

// route reads the next-hop set index and hop count from node toward dst in
// the given tables (the live or the baseline ones), ignoring uplink flags;
// hops is -1 where there is no route.
func (t *Topology) route(routes []uint16, dist []int16, node, dst packet.NodeID) (set uint16, hops int) {
	d := &t.dests[dst]
	switch {
	case node == dst:
		return 0, -1
	case node == d.leaf:
		return d.set, 1
	}
	at := t.at(node, d.col)
	if dist[at] < 0 {
		return 0, -1
	}
	return routes[at], int(dist[at]) + 1
}

// distTo returns the live hop count from node toward dst, -1 if none.
func (t *Topology) distTo(node, dst packet.NodeID) int {
	if t.dests[dst].liveCol == 0 {
		return -1
	}
	_, hops := t.route(t.routes, t.dist, node, dst)
	return hops
}

// intern returns the index of ports among node's interned sets, trying the
// currently installed set first and adding a copy when the set is new.
func (t *Topology) intern(node packet.NodeID, ports []int, installed uint16) uint16 {
	sets := t.sets[node]
	if slices.Equal(sets[installed], ports) {
		return installed
	}
	for i, set := range sets {
		if slices.Equal(set, ports) {
			return uint16(i)
		}
	}
	if len(sets) > math.MaxUint16 {
		panic(fmt.Sprintf("topology: %s has more than %d distinct next-hop sets", t.nodes[node].Name, math.MaxUint16))
	}
	t.sets[node] = append(sets, slices.Clone(ports))
	return uint16(len(sets))
}

// Link dynamics ---------------------------------------------------------------

// LinkBetween returns the port indexes of the (first) link joining a and b.
func (t *Topology) LinkBetween(a, b packet.NodeID) (portA, portB int, ok bool) {
	for pi, p := range t.nodes[a].Ports {
		if p.Peer == b {
			return pi, p.PeerPort, true
		}
	}
	return 0, 0, false
}

// NodeByName resolves a node by its construction-time name.
func (t *Topology) NodeByName(name string) (packet.NodeID, bool) {
	for _, n := range t.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return 0, false
}

// SetLinkState marks the a<->b link up or down and incrementally recomputes
// the ECMP routing tables: a switch-to-switch link re-solves only the leaf
// columns whose shortest-path DAG it touches, and a host's uplink only
// repoints the host's entry (dests) and patches its own row. It returns the number of
// (node, host) next-hop sets that changed (the "reroute count" the scenario
// engine reports), or 0 when the link already had the requested state.
func (t *Topology) SetLinkState(a, b packet.NodeID, up bool) int {
	pa, pb, ok := t.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topology: no link between %s and %s", t.nodes[a].Name, t.nodes[b].Name))
	}
	if t.nodes[a].Ports[pa].Up == up {
		return 0
	}
	if t.baseShared {
		t.baseRoutes, t.baseDist, t.baseShared = slices.Clone(t.routes), slices.Clone(t.dist), false
	}
	t.nodes[a].Ports[pa].Up = up
	t.nodes[b].Ports[pb].Up = up
	switch {
	case t.nodes[a].Kind == Host:
		return t.setUplink(a, up)
	case t.nodes[b].Kind == Host:
		return t.setUplink(b, up)
	}
	// Whether a column is affected is decided from the pre-change distances:
	// they tell whether the link lies on (failure) or adds to (recovery) the
	// leaf's shortest-path DAG. Each column's distances are its own, which
	// nothing rewrites before its own solve. A row that changed in column c
	// changed toward each of the leaf's hosts whose uplink is up; toward the
	// others every node has no route before and after.
	changed := 0
	for c := range t.leaves {
		col := int32(c + 1)
		if t.colAffected(col, a, b, up) {
			changed += t.solve(col) * int(t.upHosts[col])
		}
	}
	return changed
}

// colAffected reports whether changing the a<->b link can alter the routing
// DAG toward column col's leaf. An existing shortest-path edge always has
// endpoint distances differing by exactly 1; removal of any other edge is a
// no-op. A restored edge changes distances or adds equal-cost ports only when
// the endpoint distances differ. Unknown (-1) distances are conservatively
// treated as affected.
func (t *Topology) colAffected(col int32, a, b packet.NodeID, up bool) bool {
	da, db := t.dist[t.at(a, col)], t.dist[t.at(b, col)]
	if da == -1 || db == -1 {
		return true
	}
	if up {
		return da != db
	}
	diff := da - db
	return diff == 1 || diff == -1
}

// setUplink applies the flip of host h's uplink. No shortest path runs
// through a host, so every column keeps its rows except h's own, which is
// patched from the leaf's distances instead of re-solved. The (node, host)
// sets that change are: the leaf's and every other node's route toward h
// that exists while the uplink is up, and h's own route toward every other
// up host whose leaf its leaf reaches.
func (t *Topology) setUplink(h packet.NodeID, up bool) int {
	d := &t.dests[h]
	d.liveCol, d.liveSet = 0, 0
	if up {
		d.liveCol, d.liveSet = d.col, d.set
	} else {
		t.upHosts[d.col]-- // upHosts leaves h out while the sets are counted
	}
	changed := 1 // the leaf's port to h
	for _, n := range t.nodes {
		if n.ID != h && n.ID != d.leaf && t.routes[t.at(n.ID, d.col)] != 0 {
			changed++
		}
	}
	leafRow, row := t.at(d.leaf, 0), t.at(h, 0)
	for c := 1; c <= len(t.leaves); c++ {
		hops := t.dist[leafRow+c]
		if hops >= 0 {
			changed += int(t.upHosts[c])
		}
		if up && hops >= 0 {
			t.routes[row+c], t.dist[row+c] = t.intern(h, uplinkPort, t.routes[row+c]), hops+1
		} else {
			t.routes[row+c], t.dist[row+c] = 0, -1
		}
	}
	if up {
		t.upHosts[d.col]++
	}
	return changed
}

// SetLinkParams updates the rate and propagation delay of the a<->b link in
// both directions. Routing is hop-count based, so no route recomputation is
// needed; callers must mirror the change onto the wired netsim.Links.
func (t *Topology) SetLinkParams(a, b packet.NodeID, rate units.Rate, delay units.Time) {
	if rate <= 0 || delay < 0 {
		panic("topology: invalid link parameters")
	}
	pa, pb, ok := t.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topology: no link between %s and %s", t.nodes[a].Name, t.nodes[b].Name))
	}
	t.nodes[a].Ports[pa].Rate, t.nodes[a].Ports[pa].Delay = rate, delay
	t.nodes[b].Ports[pb].Rate, t.nodes[b].Ports[pb].Delay = rate, delay
}

// NextHops returns the equal-cost egress ports from node toward dst. dst must
// be a host. It panics when no route exists; devices on a dynamic topology
// should use NextHopsOrNil and treat an empty result as a routable drop.
func (t *Topology) NextHops(node, dst packet.NodeID) []int {
	ports := t.NextHopsOrNil(node, dst)
	if len(ports) == 0 {
		panic(fmt.Sprintf("topology: no route from %s to %s", t.nodes[node].Name, t.nodes[dst].Name))
	}
	return ports
}

// NextHopsOrNil returns the equal-cost egress ports from node toward dst, or
// nil when dst is (transiently) unreachable — e.g. a packet in flight toward
// a switch whose only link onward just failed, or a dst that is not a host.
// The returned slice is shared and must not be modified.
func (t *Topology) NextHopsOrNil(node, dst packet.NodeID) []int {
	// Both candidates are read first so that the compiler selects between
	// them (CMOV) instead of branching: whether node is dst's leaf varies from
	// packet to packet at a leaf switch.
	d := &t.dests[dst]
	hops, toHost := t.sets[node][t.routes[t.at(node, d.liveCol)]], t.sets[d.leaf][d.liveSet]
	if node == d.leaf {
		hops = toHost
	}
	if node == dst {
		hops = nil
	}
	return hops
}

const ecmpSalt uint64 = 0x45434d5000000003

// ECMPPick is the fabric's one ECMP decision: the flow's 5-tuple hash, salted
// by the deciding switch node, selects one of the equal-cost ports, so all
// packets of the flow take the same path and each switch chooses
// independently of the others (no polarisation across tiers). Switches and
// EgressPort both pick through it. ports must be non-empty.
func ECMPPick(node packet.NodeID, ports []int, f *packet.Flow) int {
	if len(ports) == 1 {
		return ports[0]
	}
	return ports[f.Hash(ecmpSalt+uint64(node)*packet.Gamma)%uint64(len(ports))]
}

// EgressPort picks the egress port for a flow at the given node toward its
// destination, as a switch forwarding its data packets does (ECMPPick over
// NextHops, so it panics where NextHops does).
func (t *Topology) EgressPort(node packet.NodeID, f *packet.Flow) int {
	return ECMPPick(node, t.NextHops(node, f.Dst), f)
}

// baseNextHops returns the baseline (all links up) equal-cost ports from
// node toward dst.
func (t *Topology) baseNextHops(node, dst packet.NodeID) []int {
	set, _ := t.route(t.baseRoutes, t.baseDist, node, dst)
	if set == 0 {
		panic(fmt.Sprintf("topology: no route from %s to %s", t.nodes[node].Name, t.nodes[dst].Name))
	}
	return t.sets[node][set]
}

// PathRTT returns the base (unloaded) round-trip time between two hosts:
// twice the sum of propagation delays plus one MTU serialization per hop in
// each direction. This is the "best possible" latency used for FCT slowdown
// normalization.
func (t *Topology) PathRTT(src, dst packet.NodeID, mtu units.Bytes) units.Time {
	return 2 * t.PathOneWay(src, dst, mtu)
}

// PathOneWay returns the unloaded one-way delay from src to dst for an
// MTU-sized packet (store-and-forward at every hop), walked over the
// baseline routes so it stays defined and constant through scenario link
// failures. Link parameters are read live, so a degrade event is reflected.
func (t *Topology) PathOneWay(src, dst packet.NodeID, mtu units.Bytes) units.Time {
	if src == dst {
		return 0
	}
	var total units.Time
	cur := src
	for cur != dst {
		ports := t.baseNextHops(cur, dst)
		p := t.nodes[cur].Ports[ports[0]]
		total += p.Delay + units.SerializationTime(mtu, p.Rate)
		cur = p.Peer
	}
	return total
}

// MinPathRate returns the smallest link rate on the (first equal-cost)
// baseline path from src to dst; used to compute the ideal transfer time of
// a flow.
func (t *Topology) MinPathRate(src, dst packet.NodeID) units.Rate {
	if src == dst {
		panic("topology: src == dst")
	}
	min := units.Rate(0)
	cur := src
	for cur != dst {
		ports := t.baseNextHops(cur, dst)
		p := t.nodes[cur].Ports[ports[0]]
		if min == 0 || p.Rate < min {
			min = p.Rate
		}
		cur = p.Peer
	}
	return min
}

// HostRate returns the uplink rate of a host.
func (t *Topology) HostRate(host packet.NodeID) units.Rate {
	n := t.nodes[host]
	if n.Kind != Host {
		panic("topology: HostRate on non-host")
	}
	return n.Ports[0].Rate
}
