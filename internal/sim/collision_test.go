package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// TestCollisionFractionAnchor holds the model to its third closed form: with
// n flows hashed into Q physical queues, the share of queue assignments that
// land in an occupied queue is the balls-into-bins expectation
//
//	E = 1 − Q·(1 − (1 − 1/Q)^n)/n
//
// under static assignment (BFC-VFID, §3.2), and 0 under dynamic assignment
// (§3.3) while n ≤ Q. On star:n+1, n senders each send one flow of two
// packets to one receiver through the switch at once. The first packets take
// the high-priority queue (§3.7), the second packets arrive together one
// serialisation later and are assigned while every flow still holds its
// first packet, so each flow is assigned exactly once with all n present: a
// run's collisions must be n minus the distinct queues its flows hash to.
// Each row averages CollisionFraction over relabellings — every flow draws a
// fresh random source port, so a fresh hash — and the mean must lie within
// four standard errors of E, the error taken from the variance of the number
// of occupied bins.
//
// The same band holds a second labelling: consecutive hosts sending with
// consecutive source ports, which is how workload.Generate numbers an
// incast's flows. Its collisions are counted from the hashes alone (the
// random rows already tie the count to the run). A tuple hash whose low bits
// track the low bits of its inputs, as FNV-1a modulo 2^k did, fails it.
func TestCollisionFractionAnchor(t *testing.T) {
	const relabellings = 240
	for _, q := range []int{8, 32} {
		for _, n := range []int{4, 8, 16, 32} {
			t.Run(fmt.Sprintf("Q=%d/n=%d", q, n), func(t *testing.T) {
				topo := starTopo(n + 1)
				hosts := topo.Hosts()
				flows := func(port func(i int) uint16) ([]*packet.Flow, int) {
					out := make([]*packet.Flow, n)
					queues := map[int]bool{}
					for i := range out {
						out[i] = &packet.Flow{ID: packet.FlowID(i + 1), Src: hosts[i+1], Dst: hosts[0],
							SrcPort: port(i), DstPort: 4791, Size: 2000}
						queues[out[i].QueueOf(q)] = true
					}
					return out, n - len(queues)
				}
				run := func(scheme Scheme, r int) (*Result, int) {
					rng := rand.New(rand.NewSource(int64(r)))
					fl, shared := flows(func(int) uint16 { return uint16(rng.Intn(1 << 16)) })
					opts := DefaultOptions(scheme, topo)
					opts.NumQueues = q
					opts.Duration = 10 * units.Microsecond
					opts.Drain = 100 * units.Microsecond
					res, err := Run(opts, fl)
					if err != nil {
						t.Fatal(err)
					}
					if res.FlowsCompleted != n || res.Assignments != uint64(n) {
						t.Fatalf("relabelling %d: %d of %d flows completed after %d queue assignments, want one each", r, res.FlowsCompleted, n, res.Assignments)
					}
					return res, shared
				}
				// means[0] labels with random ports, means[1] with consecutive.
				var means [2]float64
				for r := 0; r < relabellings; r++ {
					res, shared := run(SchemeBFCStatic, r)
					if res.CollidedAssignments != uint64(shared) {
						t.Fatalf("relabelling %d: %d collided assignments, the flows hash to %d shared queues", r, res.CollidedAssignments, shared)
					}
					means[0] += res.CollisionFraction() / relabellings
					_, shared = flows(func(i int) uint16 { return uint16(1000 + r*n + i) })
					means[1] += float64(shared) / float64(n) / relabellings
				}
				fq, fn := float64(q), float64(n)
				want := 1 - fq*(1-math.Pow(1-1/fq, fn))/fn
				variance := fq*math.Pow(1-1/fq, fn) + fq*(fq-1)*math.Pow(1-2/fq, fn) - fq*fq*math.Pow(1-1/fq, 2*fn)
				band := 4 * math.Sqrt(variance/relabellings) / fn
				t.Logf("static: E=%.4f band=±%.4f; random ports mean=%.4f error=%+.4f; consecutive ports mean=%.4f error=%+.4f",
					want, band, means[0], means[0]-want, means[1], means[1]-want)
				for i, label := range []string{"random", "consecutive"} {
					if math.Abs(means[i]-want) > band {
						t.Errorf("%s ports: mean collision fraction %.4f is %+.4f from E = %.4f, band ±%.4f", label, means[i], means[i]-want, want, band)
					}
				}
				if n > q {
					return
				}
				for r := 0; r < relabellings; r++ {
					if res, _ := run(SchemeBFC, r); res.CollisionFraction() != 0 {
						t.Fatalf("relabelling %d: dynamic assignment collided on %d of %d assignments with n ≤ Q", r, res.CollidedAssignments, res.Assignments)
					}
				}
			})
		}
	}
}
