package sim

import (
	"fmt"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// TestIdealFCTAnchor holds the model to its first closed form: an uncontended
// flow completes in IdealFCT — the denominator of every slowdown the
// evaluation reports — on every fabric, under every scheme, at sizes around
// the packet boundaries and up to 1 MB, serial and sharded. One flow crosses
// the fabric from the first host to the last; it must complete without a
// drop, within one MTU serialisation of the ideal, except under HPCC, whose
// window aims at η = 0.95 of line rate (the HPCC paper's target
// utilization) and so may take up to ideal/η. Each row logs its error in ps
// and in MTU serialisations.
func TestIdealFCTAnchor(t *testing.T) {
	fatTree := topology.NewFatTree(topology.FatTreeForHosts(128, 100*units.Gbps, units.Microsecond))
	fabrics := []struct {
		name   string
		topo   *topology.Topology
		shards int
	}{
		{"star:4", starTopo(4), 0},
		{"clos:2x2x4", smallClos(), 0},
		{"t2", topology.NewT2(), 0},
		{"fattree:128", fatTree, 0},
		{"fattree:128/shards=2", fatTree, 2},
	}
	sizes := []units.Bytes{0, 500, 1000, 1001, 100 * units.KB, units.MB}
	for _, fab := range fabrics {
		hosts := fab.topo.Hosts()
		src, dst := hosts[0], hosts[len(hosts)-1]
		rate := fab.topo.MinPathRate(src, dst)
		for _, scheme := range append(AllSchemes(), SchemeBFCStatic) {
			for _, size := range sizes {
				opts := DefaultOptions(scheme, fab.topo)
				opts.Duration = 100 * units.Microsecond
				opts.Drain = 400 * units.Microsecond
				opts.Shards = fab.shards
				mtu := units.SerializationTime(MTU+packet.DataHeaderSize, rate)
				t.Run(fmt.Sprintf("%s/%s/%dB", fab.name, scheme, size), func(t *testing.T) {
					flow := &packet.Flow{ID: 1, Src: src, Dst: dst, SrcPort: 1000, DstPort: 4791, Size: size}
					ideal := IdealFCT(fab.topo, flow)
					res, err := Run(opts, []*packet.Flow{flow})
					if err != nil {
						t.Fatal(err)
					}
					if res.FlowsCompleted != 1 || res.Drops != 0 {
						t.Fatalf("%d/%d flows completed, %d drops on an idle fabric", res.FlowsCompleted, res.FlowsTotal, res.Drops)
					}
					fct := flow.FCT()
					diff := fct - ideal
					t.Logf("fct=%v ideal=%v error=%dps (%.2f MTU serialisations)", fct, ideal, int64(diff), float64(diff)/float64(mtu))
					if scheme == SchemeHPCC {
						const eta = 0.95
						if fct < ideal || float64(fct) > float64(ideal)/eta {
							t.Errorf("FCT %v outside [ideal %v, ideal/η %v]", fct, ideal, units.Time(float64(ideal)/eta))
						}
					} else if diff < -mtu || diff > mtu {
						t.Errorf("FCT %v is %v from ideal %v, more than one MTU serialisation (%v)", fct, diff, ideal, mtu)
					}
				})
			}
		}
	}
}
