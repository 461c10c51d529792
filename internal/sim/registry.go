package sim

import (
	"fmt"
	"sort"

	"bfc/internal/netsim"
	"bfc/internal/nic"
	"bfc/internal/packet"
	"bfc/internal/scenario"
	"bfc/internal/switchsim"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// registry is the device table of one run. NodeIDs are dense, so the switch
// or NIC of every node sits in a slice indexed by NodeID (nil where the node
// is of the other kind). A run hands the same registry to every shard runner,
// each filling only the slots of the nodes it owns, on its own goroutine. No
// shard reads a slot another fills until every build has joined; from the
// wiring on, shards only read it, so the coordinator samples at barriers and
// collects at the end straight from it. Once every link is wired, the
// coordinator groups the links into the tier-pair classes that the Result and
// the series read.
type registry struct {
	topo     *topology.Topology
	switches []*switchsim.Switch
	nics     []*nic.NIC
	classes  []linkClass
}

func newRegistry(topo *topology.Topology) *registry {
	return &registry{
		topo:     topo,
		switches: make([]*switchsim.Switch, topo.NumNodes()),
		nics:     make([]*nic.NIC, topo.NumNodes()),
	}
}

// device returns a node's device, nil until its owner has built it.
func (g *registry) device(id packet.NodeID) netsim.Device {
	if sw := g.switches[id]; sw != nil {
		return sw
	}
	if n := g.nics[id]; n != nil {
		return n
	}
	return nil
}

// outLink returns a device's outgoing link on the given port.
func (g *registry) outLink(id packet.NodeID, port int) *netsim.Link {
	if sw := g.switches[id]; sw != nil {
		return sw.Link(port)
	}
	return g.nics[id].Link()
}

func (g *registry) linkPorts(a, b packet.NodeID) (pa, pb int) {
	pa, pb, ok := g.topo.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("sim: no link between nodes %d and %d", a, b))
	}
	return pa, pb
}

// SetLinkState applies a link up/down event: reroute first (so no new packet
// is steered at the dead link), then flip both unidirectional links, then
// reset the pause machinery on both attached devices. rec (nil when untraced)
// receives the trace event stamped at, after the reroute and before the
// devices react — the resets can emit pause records of their own, and the
// trace pins them behind the link event. The coordinator calls it with every
// shard parked at a barrier, where the mutation is race-free and observed
// atomically.
func (g *registry) SetLinkState(at units.Time, rec telemetry.Recorder, a, b packet.NodeID, up bool) int {
	pa, pb := g.linkPorts(a, b)
	reroutes := g.topo.SetLinkState(a, b, up)
	if rec != nil {
		kind := telemetry.KindLinkDown
		if up {
			kind = telemetry.KindLinkUp
		}
		rec.Record(telemetry.Event{At: at, Kind: kind,
			Node: a, Port: int32(pa), Queue: -1, Value: int64(reroutes)})
	}
	if l := g.outLink(a, pa); l != nil {
		l.SetDown(!up)
	}
	if l := g.outLink(b, pb); l != nil {
		l.SetDown(!up)
	}
	g.notifyLinkChange(a, pa, up)
	g.notifyLinkChange(b, pb, up)
	return reroutes
}

func (g *registry) notifyLinkChange(id packet.NodeID, port int, up bool) {
	if sw := g.switches[id]; sw != nil {
		sw.OnLinkStateChange(port, up)
		return
	}
	g.nics[id].OnLinkStateChange(up)
}

// SetLinkParams degrades both directions of a link (topology tables and wired
// links), recording like SetLinkState.
func (g *registry) SetLinkParams(at units.Time, rec telemetry.Recorder, a, b packet.NodeID, rate units.Rate, delay units.Time) {
	pa, pb := g.linkPorts(a, b)
	g.topo.SetLinkParams(a, b, rate, delay)
	if rec != nil {
		rec.Record(telemetry.Event{At: at, Kind: telemetry.KindLinkDegrade,
			Node: a, Port: int32(pa), Queue: -1, Value: int64(rate)})
	}
	for _, l := range []*netsim.Link{g.outLink(a, pa), g.outLink(b, pb)} {
		if l != nil {
			l.SetRate(rate)
			l.SetDelay(delay)
		}
	}
}

// linkClass groups the links of one tier pair ("ToR->Spine", ...): the key of
// Result.PauseTimeFraction and of the links/<key>/ series.
type linkClass struct {
	key   string
	links []*netsim.Link
}

// buildLinkClasses fills g.classes from the wired links: every link of every
// node, grouped by tier pair, keys in sorted order and links in topology order.
// Call it once, after every shard's wireLinks.
func (g *registry) buildLinkClasses() {
	type tierPair struct{ from, to topology.Tier }
	idx := map[tierPair]int{}
	for _, node := range g.topo.Nodes() {
		for portIdx, port := range node.Ports {
			pair := tierPair{node.Tier, g.topo.Node(port.Peer).Tier}
			i, ok := idx[pair]
			if !ok {
				i = len(g.classes)
				idx[pair] = i
				g.classes = append(g.classes, linkClass{key: fmt.Sprintf("%s->%s", pair.from, pair.to)})
			}
			g.classes[i].links = append(g.classes[i].links, g.outLink(node.ID, portIdx))
		}
	}
	sort.Slice(g.classes, func(i, j int) bool { return g.classes[i].key < g.classes[j].key })
}

// sampleSwitches returns the switches in topology (NodeID) order: the sample
// sequence feeds Result distributions that the harness persists, and
// artifacts must be byte-identical across reruns and worker counts.
func (g *registry) sampleSwitches() []*switchsim.Switch {
	var sws []*switchsim.Switch
	for _, sw := range g.switches {
		if sw != nil {
			sws = append(sws, sw)
		}
	}
	return sws
}

// sampleTick takes one statistics sample over sws into res and, when series is
// non-nil, appends one point to every series. The coordinator calls it at its
// tick barriers, with every shard parked after the events ordered before the
// tick's key. It walks the switches once, in the order sampleSwitches gave.
func sampleTick(res *Result, sws []*switchsim.Switch, series *seriesSampler) {
	for i, sw := range sws {
		occ := sw.BufferOccupancy()
		res.BufferOccupancy.Add(float64(occ))
		if occ > res.MaxBufferOccupancy {
			res.MaxBufferOccupancy = occ
		}
		occupied, largest := sw.DataQueues()
		res.OccupiedQueues.Add(float64(occupied))
		res.MaxPhysicalQueueBytes = max(res.MaxPhysicalQueueBytes, largest)
		if series != nil {
			series.swBuffer[i].Append(float64(occ))
		}
	}
	if series != nil {
		series.sampleFabric()
	}
}

// collect fills res with everything read off the devices after the last
// event: utilization, switch and BFC-engine counters, pause-time fractions.
// scen (nil without a scenario) receives the no-route drops and is attached to
// the result. Events, flow counts and the telemetry bundle are the caller's.
func (g *registry) collect(res *Result, horizon units.Time, flows []*packet.Flow, scen *scenario.Metrics) {
	res.Elapsed = horizon

	// Utilization over all hosts, and over receivers only: delivered bytes
	// against host line rate x hosts x horizon.
	receiver := make([]bool, len(g.nics))
	receivers := 0
	for _, f := range flows {
		if !receiver[f.Dst] {
			receiver[f.Dst] = true
			receivers++
		}
	}
	var delivered, receiverDelivered units.Bytes
	for id, n := range g.nics {
		if n == nil {
			continue
		}
		st := n.Stats()
		delivered += st.DeliveredBytes
		if receiver[id] {
			receiverDelivered += st.DeliveredBytes
		}
	}
	hostRate := g.topo.HostRate(g.topo.Hosts()[0])
	capacityBytes := func(hosts int) float64 {
		return float64(hostRate*units.Rate(hosts)) / 8 * horizon.Seconds()
	}
	res.Utilization = float64(delivered) / capacityBytes(len(g.topo.Hosts()))
	if receivers > 0 {
		res.ReceiverUtilization = float64(receiverDelivered) / capacityBytes(receivers)
	}

	// Pause-time fraction per link class (Fig 6b): paused link-time over
	// link-time, host uplinks included — the ToR can PFC-pause them too.
	for _, c := range g.classes {
		var paused units.Time
		for _, l := range c.links {
			paused += l.PausedTime()
		}
		res.PauseTimeFraction[c.key] = float64(paused) / (float64(horizon) * float64(len(c.links)))
	}

	// Switch and BFC-engine counters.
	for _, sw := range g.switches {
		if sw == nil {
			continue
		}
		st := sw.Stats()
		res.Drops += st.Drops
		if scen != nil {
			scen.NoRouteDrops += st.NoRouteDrops
		}
		res.ECNMarks += st.ECNMarks
		res.PFCPauses += st.PFCPausesSent
		res.BFCFrames += st.BFCFramesSent
		if eng := sw.Engine(); eng != nil {
			es := eng.Stats()
			res.Assignments += es.Assignments
			res.CollidedAssignments += es.CollidedAssignments
			res.VFIDCollisions += es.VFIDCollisions
			res.TableOverflowPackets += es.TableOverflowPackets
			res.DataPackets += es.DataPackets
			res.Pauses += es.Pauses
			res.Resumes += es.Resumes
			if es.MaxActiveFlows > res.MaxActiveFlows {
				res.MaxActiveFlows = es.MaxActiveFlows
			}
		} else {
			res.DataPackets += st.DataPacketsIn
		}
	}
	res.Scenario = scen
}
