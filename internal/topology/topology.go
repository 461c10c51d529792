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
// recomputes the ECMP tables of the hosts whose shortest-path DAGs the link
// touched, and SetLinkParams degrades a link's rate or latency in place.
//
// The routing tables are flat and hold no pointers: one row per node, one
// column per host plus column 0, never written, for every destination that is
// not a host; per entry a uint16 index into the node's interned next-hop port
// sets and an int16 hop count. Interned sets are immutable and append-only,
// so the slices NextHops hands out stay valid, and two entries of one node
// hold equal indexes exactly when their port sets are equal — which is how a
// reroute counts the sets it changed. Index 0 is the empty set: no route.
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

	// hostCol[node] is the node's column in the tables below: 1 + its index
	// in hosts, or 0 for a switch.
	hostCol []int32
	// sets[node] holds the node's interned next-hop port sets (see the
	// package comment); sets[node][0] is the empty set.
	sets [][][]int
	// routes[at(node, host)] indexes sets[node]: the egress ports on
	// equal-cost shortest paths from node toward host.
	routes []uint16
	// dist, indexed like routes, is the hop count of those paths, -1 if none.
	dist []int16

	// baseRoutes and baseDist snapshot the pristine (all links up) tables at
	// build time. Forwarding uses the live tables; the unloaded-path metrics
	// (PathOneWay, MinPathRate, HopCount) use the baseline, so ideal-FCT
	// denominators stay well-defined and constant while scenario link events
	// reshape the live routes.
	baseRoutes []uint16
	baseDist   []int16

	// Scratch reused by every bfsFrom, so that a reroute allocates only when
	// it produces a port set the node never had.
	bfsDist  []int32
	bfsQueue []packet.NodeID
	bfsPorts []int
}

// Nodes returns all nodes, indexed by NodeID.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Node returns the node with the given ID.
func (t *Topology) Node(id packet.NodeID) *Node { return t.nodes[id] }

// Hosts returns the IDs of all host nodes.
func (t *Topology) Hosts() []packet.NodeID { return t.hosts }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// builder accumulates nodes and links before routing is computed.
type builder struct {
	name  string
	nodes []*Node
}

func newBuilder(name string) *builder { return &builder{name: name} }

func (b *builder) addNode(kind Kind, tier Tier, name string) packet.NodeID {
	id := packet.NodeID(len(b.nodes))
	b.nodes = append(b.nodes, &Node{ID: id, Kind: kind, Tier: tier, Name: name})
	return id
}

// addLink connects a and b with a bidirectional link.
func (b *builder) addLink(x, y packet.NodeID, rate units.Rate, delay units.Time) {
	if rate <= 0 || delay < 0 {
		panic("topology: invalid link parameters")
	}
	nx, ny := b.nodes[x], b.nodes[y]
	px, py := len(nx.Ports), len(ny.Ports)
	nx.Ports = append(nx.Ports, Port{Peer: y, PeerPort: py, Rate: rate, Delay: delay, Up: true})
	ny.Ports = append(ny.Ports, Port{Peer: x, PeerPort: px, Rate: rate, Delay: delay, Up: true})
}

// build computes routing tables and returns the immutable topology.
func (b *builder) build() *Topology {
	t := &Topology{Name: b.name, nodes: b.nodes}
	for _, n := range b.nodes {
		if n.Kind == Host {
			t.hosts = append(t.hosts, n.ID)
			if len(n.Ports) != 1 {
				panic(fmt.Sprintf("topology: host %s must have exactly one uplink, has %d", n.Name, len(n.Ports)))
			}
		}
	}
	t.computeRoutes()
	t.baseRoutes, t.baseDist = slices.Clone(t.routes), slices.Clone(t.dist)
	return t
}

// computeRoutes runs a reverse BFS from every host, recording for each node
// the set of egress ports that lie on a shortest path toward that host.
func (t *Topology) computeRoutes() {
	n := len(t.nodes)
	t.hostCol = make([]int32, n)
	for col, host := range t.hosts {
		t.hostCol[host] = int32(col) + 1
	}
	t.sets = make([][][]int, n)
	for i := range t.sets {
		t.sets[i] = [][]int{nil}
	}
	t.routes = make([]uint16, n*(len(t.hosts)+1))
	t.dist = make([]int16, len(t.routes))
	for i := range t.dist {
		t.dist[i] = -1
	}
	t.bfsDist = make([]int32, n)
	t.bfsQueue = make([]packet.NodeID, 0, n)
	for _, host := range t.hosts {
		t.bfsFrom(host)
	}
}

// at returns the table index of (node, dst). A dst that is not a host lands
// in column 0, which reads as no route at distance -1.
func (t *Topology) at(node, dst packet.NodeID) int {
	return int(node)*(len(t.hosts)+1) + int(t.hostCol[dst])
}

// bfsFrom recomputes the shortest-path DAG toward host over the currently-up
// links and installs it, returning the number of (node, host) next-hop sets
// that changed. Unreachable nodes get the empty port set and distance -1.
func (t *Topology) bfsFrom(host packet.NodeID) (changed int) {
	dist := t.bfsDist
	for i := range dist {
		dist[i] = -1
	}
	dist[host] = 0
	queue := append(t.bfsQueue[:0], host)
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
	// A node's next hops toward host are the neighbors one step closer.
	for _, node := range t.nodes {
		if node.ID == host {
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
		at := t.at(node.ID, host)
		if set := t.intern(node.ID, ports, t.routes[at]); set != t.routes[at] {
			changed++
			t.routes[at] = set
		}
		t.dist[at] = int16(dist[node.ID])
	}
	return changed
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
// the ECMP routing tables: only hosts whose shortest-path DAG the link
// touches are re-solved. It returns the number of (node, host) next-hop sets
// that changed (the "reroute count" the scenario engine reports), or 0 when
// the link already had the requested state.
func (t *Topology) SetLinkState(a, b packet.NodeID, up bool) int {
	pa, pb, ok := t.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topology: no link between %s and %s", t.nodes[a].Name, t.nodes[b].Name))
	}
	if t.nodes[a].Ports[pa].Up == up {
		return 0
	}
	t.nodes[a].Ports[pa].Up = up
	t.nodes[b].Ports[pb].Up = up
	// Whether a host is affected is decided from the pre-change distances:
	// they tell whether the link lies on (failure) or adds to (recovery) the
	// host's shortest-path DAG. Each host's distances are its own column,
	// which nothing rewrites before its own bfsFrom.
	changed := 0
	for _, host := range t.hosts {
		if t.hostAffected(host, a, b, up) {
			changed += t.bfsFrom(host)
		}
	}
	return changed
}

// hostAffected reports whether changing the a<->b link can alter the routing
// DAG toward host. An existing shortest-path edge always has endpoint
// distances differing by exactly 1; removal of any other edge is a no-op. A
// restored edge changes distances or adds equal-cost ports only when the
// endpoint distances differ. Unknown (-1) distances are conservatively
// treated as affected.
func (t *Topology) hostAffected(host, a, b packet.NodeID, up bool) bool {
	da, db := t.dist[t.at(a, host)], t.dist[t.at(b, host)]
	if da == -1 || db == -1 {
		return true
	}
	if up {
		return da != db
	}
	diff := da - db
	return diff == 1 || diff == -1
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
	return t.sets[node][t.routes[t.at(node, dst)]]
}

// EgressPort picks the egress port for a flow at the given node using ECMP:
// the flow's 5-tuple hash selects one of the equal-cost ports, so all packets
// of the flow take the same path.
func (t *Topology) EgressPort(node packet.NodeID, f *packet.Flow) int {
	ports := t.NextHops(node, f.Dst)
	if len(ports) == 1 {
		return ports[0]
	}
	h := f.VFIDOf(1 << 30)
	return ports[int(h)%len(ports)]
}

// baseNextHops returns the baseline (all links up) equal-cost ports from
// node toward dst.
func (t *Topology) baseNextHops(node, dst packet.NodeID) []int {
	set := t.baseRoutes[t.at(node, dst)]
	if set == 0 {
		panic(fmt.Sprintf("topology: no route from %s to %s", t.nodes[node].Name, t.nodes[dst].Name))
	}
	return t.sets[node][set]
}

// HopCount returns the number of links on the baseline shortest path from
// src to dst.
func (t *Topology) HopCount(src, dst packet.NodeID) int {
	if src == dst {
		return 0
	}
	d := t.baseDist[t.at(src, dst)]
	if d < 0 {
		panic(fmt.Sprintf("topology: no path from %d to %d", src, dst))
	}
	return int(d)
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

// MaxBaseRTT returns the largest base RTT between any pair of hosts; useful
// for sizing end-to-end windows (1 BDP caps in DCQCN+Win and Ideal-FQ).
func (t *Topology) MaxBaseRTT(mtu units.Bytes) units.Time {
	var max units.Time
	// Every pair is scanned up to 32 hosts. Beyond that the scan is the first
	// host against every other: quadratic cost is avoided at the price of
	// assuming the first host sees the diameter, which holds for the symmetric
	// built-in topologies.
	hosts := t.hosts
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if rtt := t.PathRTT(a, b, mtu); rtt > max {
				max = rtt
			}
		}
		if len(hosts) > 32 {
			break
		}
	}
	return max
}

// LinkCount returns the number of (bidirectional) links.
func (t *Topology) LinkCount() int {
	total := 0
	for _, n := range t.nodes {
		total += len(n.Ports)
	}
	return total / 2
}
