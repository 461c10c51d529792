package main

import (
	"fmt"
	"time"

	"bfc/internal/bloom"
	"bfc/internal/cc"
	"bfc/internal/cc/dcqcn"
	"bfc/internal/core"
	"bfc/internal/eventsim"
	"bfc/internal/netsim"
	"bfc/internal/nic"
	"bfc/internal/packet"
	"bfc/internal/switchsim"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// The microdrivers call one layer's public API in isolation, so that a rung
// of the ladder has a figure of its own: an optimisation of that layer should
// move its microdriver first and events_per_s on the Clos workloads second.

// microRounds is how many times a microdriver repeats its loop; the figure
// reported is the median round.
const microRounds = 5

// nsPerOp runs round microRounds times after one warm-up and returns the
// median cost of one operation. round returns how many operations it did.
func nsPerOp(round func() (int, error)) (float64, error) {
	var costs []float64
	for i := 0; i <= microRounds; i++ {
		t0 := time.Now()
		ops, err := round()
		if err != nil {
			return 0, err
		}
		if i > 0 {
			costs = append(costs, float64(time.Since(t0).Nanoseconds())/float64(ops))
		}
	}
	return summarize(costs).Median, nil
}

// microEventsim is ScheduleCall plus fire against a heap of 1024 pending
// events, the depth of a busy simulation.
func microEventsim() (float64, error) {
	s := eventsim.New()
	const far = units.Time(1 << 50)
	for i := 0; i < 1024; i++ {
		s.Schedule(far+units.Time(i), func() {})
	}
	var sink int
	fn := func(x any) { sink += *x.(*int) }
	arg := new(int)
	var now units.Time
	return nsPerOp(func() (int, error) {
		const ops = 400_000
		for i := 0; i < ops; i++ {
			now++
			s.ScheduleCall(now, fn, arg)
			s.Step()
		}
		return ops, nil
	})
}

// sink ends a packet's life as a receiving host does.
type sink struct {
	id       packet.NodeID
	pool     *packet.Pool
	received int
}

func (d *sink) ID() packet.NodeID                       { return d.id }
func (d *sink) AttachLink(int, *netsim.Link)            {}
func (d *sink) ReceiveControl(int, netsim.ControlFrame) {}
func (d *sink) ReceivePacket(_ int, p *packet.Packet) {
	d.received++
	d.pool.Put(p)
}

func dataPacket(pool *packet.Pool, f *packet.Flow, seq int) *packet.Packet {
	p := pool.Get()
	p.Kind = packet.Data
	p.Flow = f
	p.Seq = seq
	p.Payload = 1000
	p.Size = 1000 + packet.DataHeaderSize
	p.First = seq == 0
	p.Priority = packet.PrioData
	return p
}

// microLink is one packet's life over one link: pool, serialize, propagate,
// deliver, recycle.
func microLink() (float64, error) {
	sched := eventsim.New()
	pool := packet.NewPool()
	dst := &sink{id: 1, pool: pool}
	link := netsim.NewLink(sched, "bench", 100*units.Gbps, units.Microsecond, dst, 0)
	flow := &packet.Flow{ID: 1, Src: 0, Dst: 1, Size: 1000}
	return nsPerOp(func() (int, error) {
		const ops = 200_000
		before := dst.received
		for i := 0; i < ops; i++ {
			link.Transmit(dataPacket(pool, flow, 1), nil)
			sched.Run()
		}
		if dst.received-before != ops {
			return 0, fmt.Errorf("link delivered %d of %d packets", dst.received-before, ops)
		}
		return ops, nil
	})
}

// microSwitch pushes data packets of eight flows through one switch of a star
// of sixteen hosts, ReceivePacket to delivery at the far end of the egress
// link. With bfc set the switch runs the BFC engine (flow table, bloom
// filters, pause frames, the per-tau tick); otherwise it is the baseline's
// single FIFO with ECN marking and PFC.
func microSwitch(bfc bool) (float64, error) {
	const hosts, flows, burst = 16, 8, 16
	sched := eventsim.New()
	pool := packet.NewPool()
	topo := topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts: hosts, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
	var node *topology.Node
	for _, n := range topo.Nodes() {
		if n.Kind == topology.Switch {
			node = n
		}
	}
	hopRTT := 2 * (units.Microsecond + units.SerializationTime(1000+packet.DataHeaderSize, 100*units.Gbps))
	cfg := switchsim.Config{
		Scheduler: sched, Topo: topo, Node: node, MTU: 1000, NumQueues: 32,
		BufferSize: 12 * units.MB, EnablePFC: true, PFCThresholdFrac: 0.11, Seed: 1, Pool: pool,
	}
	if bfc {
		engine := core.DefaultConfig()
		engine.QueuesPerPort = cfg.NumQueues
		engine.Bloom = bloom.Params{SizeBytes: 128, Hashes: bloom.DefaultHashes}
		engine.HRTT, engine.Tau = hopRTT, hopRTT/2
		cfg.BFC = &engine
	} else {
		cfg.NumQueues = 1
		cfg.EnableECN = true
		cfg.ECNKmin, cfg.ECNKmax, cfg.ECNPmax = 100*units.KB, 400*units.KB, 1.0
	}
	sw := switchsim.New(cfg)
	// Port i of the star's switch faces host i.
	sinks := make([]*sink, hosts)
	for port := range node.Ports {
		sinks[port] = &sink{id: node.Ports[port].Peer, pool: pool}
		sw.AttachLink(port, netsim.NewLink(sched, "bench", 100*units.Gbps, units.Microsecond, sinks[port], 0))
	}
	ingress := map[packet.NodeID]int{}
	for port, p := range node.Ports {
		ingress[p.Peer] = port
	}
	hostIDs := topo.Hosts()
	fl := make([]*packet.Flow, flows)
	seq := make([]int, flows)
	for i := range fl {
		fl[i] = &packet.Flow{
			ID: packet.FlowID(i + 1), Src: hostIDs[i], Dst: hostIDs[flows+i],
			SrcPort: uint16(10000 + i), DstPort: 4791, Size: 1 << 40,
		}
	}
	return nsPerOp(func() (int, error) {
		const rounds = 800
		delivered := 0
		for _, s := range sinks {
			delivered -= s.received
		}
		for r := 0; r < rounds; r++ {
			for i, f := range fl {
				for b := 0; b < burst; b++ {
					sw.ReceivePacket(ingress[f.Src], dataPacket(pool, f, seq[i]))
					seq[i]++
				}
			}
			// Long enough for every egress to drain its burst.
			sched.RunUntil(sched.Now() + 10*units.Microsecond)
		}
		for _, s := range sinks {
			delivered += s.received
		}
		if want := rounds * flows * burst; delivered != want {
			return 0, fmt.Errorf("switch delivered %d of %d packets", delivered, want)
		}
		return rounds * flows * burst, nil
	})
}

// microNIC sends 1 MB flows between two NICs joined back to back and reports
// the cost per data packet, its ACK and the controller update included. With
// newCtrl nil the NICs are BFC's (line rate, per-VFID pause state);
// otherwise they pace by the controller and echo CNPs.
func microNIC(newCtrl func(*packet.Flow) cc.Controller) (float64, error) {
	sched := eventsim.New()
	pool := packet.NewPool()
	topo := topology.NewSingleSwitch(topology.SingleSwitchConfig{
		NumHosts: 2, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
	})
	completed := 0
	nics := make([]*nic.NIC, 2)
	for i, h := range topo.Hosts() {
		cfg := nic.Config{
			Scheduler: sched, Topo: topo, Node: topo.Node(h), MTU: 1000, RTO: 4 * units.Millisecond,
			Pool: pool, OnFlowComplete: func(*packet.Flow) { completed++ },
		}
		if newCtrl == nil {
			cfg.VFIDSpace = 16384
		} else {
			cfg.NewController = newCtrl
			cfg.GenerateCNP = true
			cfg.CNPInterval = 50 * units.Microsecond
		}
		nics[i] = nic.New(cfg)
	}
	for i := range nics {
		nics[i].AttachLink(0, netsim.NewLink(sched, "bench", 100*units.Gbps, units.Microsecond, nics[1-i], 0))
	}
	hosts := topo.Hosts()
	nextID := packet.FlowID(1)
	return nsPerOp(func() (int, error) {
		const flows = 100
		before, sent := completed, nics[0].Stats().DataPacketsSent
		for i := 0; i < flows; i++ {
			f := &packet.Flow{
				ID: nextID, Src: hosts[0], Dst: hosts[1], SrcPort: uint16(nextID), DstPort: 4791,
				Size: units.MB, StartTime: sched.Now(),
			}
			nextID++
			nics[0].StartFlow(f)
			// 1 MB takes 84 us on the wire at 100 Gbps.
			sched.RunUntil(sched.Now() + 200*units.Microsecond)
		}
		if completed-before != flows {
			return 0, fmt.Errorf("%d of %d flows completed between the two NICs", completed-before, flows)
		}
		return int(nics[0].Stats().DataPacketsSent - sent), nil
	})
}

// microLayerMetrics runs every microdriver.
func microLayerMetrics(m map[string]float64) error {
	drivers := []struct {
		name string
		run  func() (float64, error)
	}{
		{"eventsim.schedule_fire_ns", microEventsim},
		{"netsim.link_hop_ns", microLink},
		{"switchsim.bfc_pkt_ns", func() (float64, error) { return microSwitch(true) }},
		{"switchsim.fifo_pkt_ns", func() (float64, error) { return microSwitch(false) }},
		{"nic.bfc_pkt_ns", func() (float64, error) { return microNIC(nil) }},
		{"nic.dcqcn_pkt_ns", func() (float64, error) {
			return microNIC(func(*packet.Flow) cc.Controller {
				return dcqcn.New(dcqcn.DefaultParams(100 * units.Gbps))
			})
		}},
	}
	for _, d := range drivers {
		v, err := d.run()
		if err != nil {
			return fmt.Errorf("microdriver %s: %w", d.name, err)
		}
		m[d.name] = v
	}
	return nil
}
