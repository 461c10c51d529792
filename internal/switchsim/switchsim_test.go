package switchsim_test

import (
	"runtime"
	"testing"

	"bfc/internal/bloom"
	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/packet"
	"bfc/internal/switchsim"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// fakeHost is a netsim.Device recording packets and control frames the
// switch sends to it.
type fakeHost struct {
	id   packet.NodeID
	pkts []*packet.Packet
	ctrl []netsim.ControlFrame
}

func (f *fakeHost) ID() packet.NodeID                           { return f.id }
func (f *fakeHost) AttachLink(port int, link *netsim.Link)      {}
func (f *fakeHost) ReceivePacket(in int, p *packet.Packet)      { f.pkts = append(f.pkts, p) }
func (f *fakeHost) ReceiveControl(p int, c netsim.ControlFrame) { f.ctrl = append(f.ctrl, c) }

func (f *fakeHost) pauses() (pause, resume int) {
	for _, c := range f.ctrl {
		if pfc, ok := c.(netsim.PFCFrame); ok {
			if pfc.Pause {
				pause++
			} else {
				resume++
			}
		}
	}
	return
}

// testSwitch builds a star-topology switch. Ports map 1:1 to hosts (port i
// connects host i); links are only attached where a test needs delivery or
// upstream signaling, since an unattached egress simply queues.
type testSwitch struct {
	sched *eventsim.Scheduler
	topo  *topology.Topology
	sw    *switchsim.Switch
	hosts []*fakeHost
}

func newTestSwitch(t *testing.T, mutate func(*switchsim.Config)) *testSwitch {
	t.Helper()
	return newStarSwitch(t, 4, mutate)
}

// newStarSwitch is newTestSwitch on a star of the given number of hosts.
func newStarSwitch(t *testing.T, hosts int, mutate func(*switchsim.Config)) *testSwitch {
	t.Helper()
	ts := &testSwitch{sched: eventsim.New()}
	ts.topo = topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts: hosts, LinkRate: 100 * units.Gbps, LinkDelay: 1 * units.Microsecond,
	})
	var node *topology.Node
	for _, n := range ts.topo.Nodes() {
		if n.Kind == topology.Switch {
			node = n
		}
	}
	cfg := switchsim.Config{
		Scheduler:  ts.sched,
		Topo:       ts.topo,
		Node:       node,
		MTU:        1000,
		NumQueues:  8,
		BufferSize: 12 * units.MB,
		Seed:       1,
		Pool:       packet.NewPool(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ts.sw = switchsim.New(cfg)
	for range node.Ports {
		ts.hosts = append(ts.hosts, &fakeHost{id: 1000 + packet.NodeID(len(ts.hosts))})
	}
	return ts
}

func TestNewRejectsNilPool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("switchsim.New accepted a config without a packet pool")
		}
	}()
	newTestSwitch(t, func(c *switchsim.Config) { c.Pool = nil })
}

// TestNewFootprint bounds the bytes switchsim.New allocates for a 16-port BFC
// switch at the paper's 32 data queues per port, measured as a
// runtime.MemStats.TotalAlloc delta. A port's 32 data queues cost 56 B each
// (a 32-B FIFO, an 8-B DRR deficit and the engine's 16-B queue record) and
// its ctrl, high-priority and overflow queues 32 to 40 B; with the port's own
// state and the engine's ingress filters that is about 2.4 KB per port,
// 38.5 KB in all on go1.24. The bound allows 2.75 KB per port. With 128 B per
// data queue (a 56-B FIFO that pointed back at its scheduler and four engine
// slices per queue) the same switch took 80.8 KB.
func TestNewFootprint(t *testing.T) {
	const ports, bound = 16, 16 * 2816
	topo := topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts: ports, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
	var node *topology.Node
	for _, n := range topo.Nodes() {
		if n.Kind == topology.Switch {
			node = n
		}
	}
	sched := eventsim.New()
	cfg := switchsim.Config{
		Scheduler: sched, Topo: topo, Node: node, MTU: 1000, NumQueues: 32,
		BufferSize: 12 * units.MB, Seed: 1, Pool: packet.NewPool(), BFC: bfcConfig(true),
	}
	// The first switch's tick grows the scheduler's arenas, which are not
	// the switch's.
	switchsim.New(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw := switchsim.New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sw)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-port BFC switch at 32 queues per port allocated %d B (bound %d B)", ports, got, bound)
	if got > bound {
		t.Errorf("switchsim.New allocated %d B for a %d-port BFC switch at 32 queues per port, want at most %d B (%d B per port)",
			got, ports, bound, bound/ports)
	}
}

// attach wires the switch's egress on the given port to its fake host.
func (ts *testSwitch) attach(port int) {
	link := netsim.NewLink(ts.sched, "sw->fake", 100*units.Gbps, 1*units.Microsecond, ts.hosts[port], 0)
	ts.sw.AttachLink(port, link)
}

// tableRoom is how many flows a BFC switch's flow table holds on one VFID:
// its §3.8 bucket of 4 and overflow cache of 100.
const tableRoom = 4 + 100

// fillTable queues one packet of each of n flows on distinct (ingress,
// egress) pairs whose egress is not avoid. With one VFID they take n of the
// flow table's tableRoom entries.
func (ts *testSwitch) fillTable(n, avoid int) {
	hosts := ts.topo.Hosts()
	id := packet.FlowID(100)
	for in := range hosts {
		for out := range hosts {
			if n == 0 {
				return
			}
			if in != out && out != avoid {
				f := &packet.Flow{ID: id, Src: hosts[in], Dst: hosts[out], SrcPort: uint16(id)}
				ts.sw.ReceivePacket(in, dataPacket(f, 0))
				id++
				n--
			}
		}
	}
	panic("fillTable: the star has too few port pairs")
}

// dataPacket builds a data packet for a host-to-host flow through the switch.
func dataPacket(f *packet.Flow, seq int) *packet.Packet {
	return &packet.Packet{
		Kind: packet.Data, Flow: f, Seq: seq, Payload: 1000,
		Size: 1000 + packet.DataHeaderSize, Priority: packet.PrioData,
		First: seq == 0,
	}
}

// bfcConfig returns an engine config; the switch sets its queue count.
func bfcConfig(hiPrio bool) *core.Config {
	cfg := core.DefaultConfig()
	cfg.UseHighPriorityQueue = hiPrio
	return &cfg
}

func TestQueueAssignmentPaths(t *testing.T) {
	flowsTo := func(topo *topology.Topology, n int) []*packet.Flow {
		// n concurrent flows from distinct sources to host 1, with source
		// ports chosen so static hashing (SFQ) spreads them across queues.
		hosts := topo.Hosts()
		var flows []*packet.Flow
		used := map[int]bool{}
		for id := 1; len(flows) < n; id++ {
			f := &packet.Flow{ID: packet.FlowID(id), Src: hosts[2], Dst: hosts[1], SrcPort: uint16(id)}
			if q := f.QueueOf(8); !used[q] {
				used[q] = true
				flows = append(flows, f)
			}
		}
		return flows
	}

	t.Run("single FIFO", func(t *testing.T) {
		ts := newTestSwitch(t, nil) // no SFQ, no BFC: everything in queue 0
		for _, f := range flowsTo(ts.topo, 2) {
			ts.sw.ReceivePacket(2, dataPacket(f, 0))
		}
		if got, _ := ts.sw.DataQueues(); got != 1 {
			t.Fatalf("single-FIFO switch occupies %d queues, want 1", got)
		}
	})

	t.Run("SFQ static hashing", func(t *testing.T) {
		ts := newTestSwitch(t, func(c *switchsim.Config) { c.SFQ = true })
		for _, f := range flowsTo(ts.topo, 3) {
			ts.sw.ReceivePacket(2, dataPacket(f, 0))
		}
		if got, _ := ts.sw.DataQueues(); got != 3 {
			t.Fatalf("SFQ spread 3 flows over %d queues, want 3", got)
		}
		if occ := ts.sw.BufferOccupancy(); occ != 3*(1000+packet.DataHeaderSize) {
			t.Fatalf("buffer occupancy = %v", occ)
		}
	})

	t.Run("BFC dynamic assignment avoids collisions", func(t *testing.T) {
		ts := newTestSwitch(t, func(c *switchsim.Config) { c.BFC = bfcConfig(false) })
		// Second packets keep the flows active so assignments stay visible.
		for _, f := range flowsTo(ts.topo, 3) {
			ts.sw.ReceivePacket(2, dataPacket(f, 0))
			ts.sw.ReceivePacket(2, dataPacket(f, 1))
		}
		if got, _ := ts.sw.DataQueues(); got != 3 {
			t.Fatalf("BFC spread 3 active flows over %d queues, want 3", got)
		}
		st := ts.sw.Engine().Stats()
		if st.Assignments != 3 || st.CollidedAssignments != 0 {
			t.Fatalf("assignments = %d (collided %d), want 3 (0)", st.Assignments, st.CollidedAssignments)
		}
	})

	t.Run("BFC high-priority queue takes first packets", func(t *testing.T) {
		ts := newTestSwitch(t, func(c *switchsim.Config) { c.BFC = bfcConfig(true) })
		f := flowsTo(ts.topo, 1)[0]
		ts.sw.ReceivePacket(2, dataPacket(f, 0))
		// The first packet of a fresh flow bypasses the data queues (§3.7).
		if got, _ := ts.sw.DataQueues(); got != 0 {
			t.Fatalf("first packet landed in %d data queues, want the high-priority queue", got)
		}
		if occ := ts.sw.BufferOccupancy(); occ != 1000+packet.DataHeaderSize {
			t.Fatalf("buffer occupancy = %v", occ)
		}
	})
}

func TestPFCPauseAndResumeSignaling(t *testing.T) {
	ts := newTestSwitch(t, func(c *switchsim.Config) {
		c.BufferSize = 20 * units.KB
		c.EnablePFC = true
		c.PFCThresholdFrac = 0.11
	})
	// Ingress on port 0 has an attached upstream link so pause frames can be
	// sent; egress toward host 1 stays unattached so the queue builds.
	ts.attach(0)
	hosts := ts.topo.Hosts()
	f := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1]}
	for seq := 0; seq < 5; seq++ {
		ts.sw.ReceivePacket(0, dataPacket(f, seq))
	}
	ts.sched.RunUntil(10 * units.Microsecond)
	if pause, _ := ts.hosts[0].pauses(); pause != 1 {
		t.Fatalf("upstream saw %d pause frames, want 1", pause)
	}
	if ts.sw.Stats().PFCPausesSent != 1 {
		t.Fatalf("PFCPausesSent = %d, want 1", ts.sw.Stats().PFCPausesSent)
	}

	// Attach the egress and nudge the scheduler: draining the queue must
	// bring the ingress back under threshold and send a resume.
	ts.attach(1)
	ts.sw.ReceivePacket(0, dataPacket(f, 5))
	ts.sched.RunUntil(100 * units.Microsecond)
	if _, resume := ts.hosts[0].pauses(); resume != 1 {
		t.Fatalf("upstream saw %d resume frames, want 1", resume)
	}
	if got := len(ts.hosts[1].pkts); got != 6 {
		t.Fatalf("egress delivered %d packets, want 6", got)
	}
	if occ := ts.sw.BufferOccupancy(); occ != 0 {
		t.Fatalf("buffer not drained: %v", occ)
	}
}

// Nactive counts serviceable data queues only: the overflow queue shares the
// port's DRR set (and its bitmap) but must not raise the pause threshold's
// divisor, and a queue parked by a downstream pause must not either.
func TestActiveQueuesExcludesOverflowAndPaused(t *testing.T) {
	bfc := bfcConfig(false)
	bfc.NumVFIDs = 1
	ts := newStarSwitch(t, 12, func(c *switchsim.Config) { c.BFC = bfc })
	ts.fillTable(tableRoom-1, 1) // room for one more flow
	hosts := ts.topo.Hosts()
	first := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1], SrcPort: 1}
	second := &packet.Flow{ID: 2, Src: hosts[2], Dst: hosts[1], SrcPort: 2}
	ts.sw.ReceivePacket(0, dataPacket(first, 0))
	if got := ts.sw.ActiveQueues(1); got != 1 {
		t.Fatalf("one queued flow: ActiveQueues = %d, want 1", got)
	}
	ts.sw.ReceivePacket(2, dataPacket(second, 0)) // table full: overflow queue
	if st := ts.sw.Engine().Stats(); st.TableOverflowPackets != 1 {
		t.Fatalf("overflow packets = %d, want 1 (the test no longer reaches the overflow queue)", st.TableOverflowPackets)
	}
	if got := ts.sw.ActiveQueues(1); got != 1 {
		t.Fatalf("with the overflow queue occupied: ActiveQueues = %d, want 1", got)
	}
	pauses := bloom.NewCounting(bfc.Bloom)
	pauses.Add(first.VFIDOf(bfc.NumVFIDs))
	filter := pauses.Snapshot(nil)
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: filter})
	if got := ts.sw.ActiveQueues(1); got != 0 {
		t.Fatalf("with the data queue paused: ActiveQueues = %d, want 0", got)
	}
}

func TestBFCPauseFrameParksQueueUntilResume(t *testing.T) {
	bfc := bfcConfig(false)
	filters := bloom.NewPool()
	ts := newTestSwitch(t, func(c *switchsim.Config) { c.BFC = bfc; c.Filters = filters })
	ts.attach(1) // egress toward host 1
	hosts := ts.topo.Hosts()
	f := &packet.Flow{ID: 1, Src: hosts[0], Dst: hosts[1]}

	// Downstream of egress port 1 declares this flow paused.
	pauses := bloom.NewCounting(bfc.Bloom)
	pauses.Add(f.VFIDOf(bfc.NumVFIDs))
	filter := pauses.Snapshot(nil)
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: filter})

	ts.sw.ReceivePacket(0, dataPacket(f, 0))
	ts.sched.RunUntil(50 * units.Microsecond)
	if got := len(ts.hosts[1].pkts); got != 0 {
		t.Fatalf("paused queue transmitted %d packets", got)
	}

	if ts.sw.HeldFilters() != 1 {
		t.Fatalf("the switch holds %d filters, want the one it installed", ts.sw.HeldFilters())
	}

	// An empty filter resumes the queue head and releases the packet, and the
	// switch puts the filter it displaced back in its pool.
	ts.sw.ReceiveControl(1, netsim.BFCPauseFrame{Filter: bloom.NewCounting(bfc.Bloom).Snapshot(nil)})
	ts.sched.RunUntil(100 * units.Microsecond)
	if got := len(ts.hosts[1].pkts); got != 1 {
		t.Fatalf("after resume egress delivered %d packets, want 1", got)
	}
	if ts.sw.HeldFilters() != 0 || filters.Free() != 1 {
		t.Fatalf("after the empty frame the switch holds %d filters and its pool %d, want 0 and 1",
			ts.sw.HeldFilters(), filters.Free())
	}
}

// TestAuditAllocFree: the end-of-run audit of a BFC switch allocates nothing,
// so a run's seal costs no object per switch. The switch holds flows in its
// table's bucket, its overflow cache and its free chain when it is audited.
func TestAuditAllocFree(t *testing.T) {
	bfc := bfcConfig(false)
	bfc.NumVFIDs = 1 // one bucket of 4: the other flows take the overflow cache
	ts := newTestSwitch(t, func(c *switchsim.Config) { c.BFC = bfc })
	ts.attach(3)
	ts.fillTable(12, -1)
	ts.sched.RunUntil(50 * units.Microsecond) // the flows toward host 3 leave
	a, err := ts.sw.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if a.FlowEntries == 0 || a.FlowEntries == 12 {
		t.Fatalf("the audited switch holds %d of 12 flows, want some drained and some queued", a.FlowEntries)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ts.sw.Audit(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Audit allocated %v objects, want 0", allocs)
	}
}
