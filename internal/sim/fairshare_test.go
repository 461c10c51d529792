package sim

import (
	"fmt"
	"math"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// TestFairShareAnchor holds the model to its second closed form: N equal
// flows that start together on one bottleneck each get C/N (§3.3 promises
// per-flow fair queueing while the flows fit in the physical queues). On T2,
// N flows from N distinct hosts under the other three ToRs go to one
// receiver, so the receiver's ToR downlink is the only shared link. C is that
// link's payload rate (line rate × MTU/(MTU + header)); a flow's rate is
// Size/FCT, read off the flow after Run. Each row logs the largest error of
// any flow against C/N and Jain's index over the N rates.
//
// BFC rows must put every flow within ±2 % of C/N and reach a Jain's index of
// at least 0.99. The flows' 4 MB take ~352 µs at C, and every FCT also holds
// the path's ~4.3 µs one-way latency, so an exactly fair run reads about
// −1.2 %. Ideal-FQ rows — a 1 001-queue DRR on every port — are held to the
// same contract only when the N flows hash to distinct queues
// (Flow.QueueOf(1000)); otherwise two flows share a queue and C/N is not the
// contract. DCQCN rows are logged, not asserted.
func TestFairShareAnchor(t *testing.T) {
	const (
		total         = 4 * units.MB // bytes through the bottleneck, split over the N flows
		fairShareBand = 0.02
		minJain       = 0.99
		idealFQQueues = 1000 // Options.Validate's default, the paper's
	)
	topo := topology.NewT2()
	hosts := topo.Hosts()
	dst := hosts[0]
	var senders []packet.NodeID
	for _, h := range hosts {
		if topo.Node(h).Ports[0].Peer != topo.Node(dst).Ports[0].Peer { // under another ToR
			senders = append(senders, h)
		}
	}
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, scheme := range []Scheme{SchemeBFC, SchemeIdealFQ, SchemeDCQCN} {
			t.Run(fmt.Sprintf("N=%d/%s", n, scheme), func(t *testing.T) {
				opts := DefaultOptions(scheme, topo)
				opts.Duration = 10 * units.Microsecond
				opts.Drain = 4 * units.Millisecond
				flows := make([]*packet.Flow, n)
				distinct := map[int]bool{}
				for i := range flows {
					flows[i] = &packet.Flow{ID: packet.FlowID(i + 1), Src: senders[i*len(senders)/n], Dst: dst,
						SrcPort: uint16(1000 + i), DstPort: 4791, Size: total / units.Bytes(n)}
					distinct[flows[i].QueueOf(idealFQQueues)] = true
				}
				res, err := Run(opts, flows)
				if err != nil {
					t.Fatal(err)
				}
				if res.FlowsCompleted != n {
					t.Fatalf("%d of %d flows completed", res.FlowsCompleted, n)
				}
				c := float64(topo.MinPathRate(flows[0].Src, dst)) * float64(MTU) / float64(MTU+packet.DataHeaderSize)
				share := c / float64(n)
				var sum, sumSq, worst float64
				for _, f := range flows {
					rate := float64(f.Size) * 8 / f.FCT().Seconds()
					sum += rate
					sumSq += rate * rate
					if e := rate/share - 1; math.Abs(e) > math.Abs(worst) {
						worst = e
					}
				}
				jain := sum * sum / (float64(n) * sumSq)
				asserted := scheme == SchemeBFC || scheme == SchemeIdealFQ && len(distinct) == n
				t.Logf("C/N=%.2f Gbps worst=%+.2f%% jain=%.5f distinct-queues=%v drops=%d asserted=%v",
					share/1e9, 100*worst, jain, len(distinct) == n, res.Drops, asserted)
				if !asserted {
					return
				}
				if math.Abs(worst) > fairShareBand {
					t.Errorf("a flow's rate is %+.2f%% off C/N = %.2f Gbps, band ±%.0f%%", 100*worst, share/1e9, 100*fairShareBand)
				}
				if jain < minJain {
					t.Errorf("Jain's index %.5f < %v", jain, minJain)
				}
			})
		}
	}
}
