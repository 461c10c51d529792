package queue

import (
	"fmt"
	"testing"

	"bfc/internal/packet"
	"bfc/internal/units"
)

// The DRR benchmark is a developer tool like the other packages' (speed is
// claimed through bench/'s workloads): it times one Dequeue on a port with
// `queues` configured queues of which `active` stay backlogged, the shape an
// Ideal-FQ port (1001 queues) or a BFC port (33) has under a few long flows.
// That the steady state allocates nothing is a test: BenchmarkDRRDequeue and
// TestDRRSteadyStateAllocFree run the same loop(n).

// dequeueLoop builds the port and returns loop(n): n dequeues, each packet
// pushed straight back onto the queue it left so the backlog never drains.
// The active queues are spread evenly over the range, hence over bitmap
// words, and their packets mix sizes below and above the quantum so visits
// end both on an emptied deficit and on a head that does not fit.
func dequeueLoop(tb testing.TB, queues, active int) func(n int) {
	const quantum = 1500
	fifos := make([]FIFO, queues)
	sizes := [...]units.Bytes{1500, 64, 1000, 2000}
	for a := 0; a < active; a++ {
		q := &fifos[a*queues/active]
		for k, s := range sizes {
			q.Push(&packet.Packet{Kind: packet.Data, Size: s + units.Bytes(a+k)})
		}
	}
	d := newDRR(fifos, quantum)
	return func(n int) {
		for i := 0; i < n; i++ {
			p, idx := d.Dequeue()
			if p == nil {
				tb.Fatalf("dequeue %d of %d: nothing served from %d backlogged queues", i, n, active)
			}
			d.Push(idx, p)
		}
	}
}

// drrRows crosses the configured and backlogged queue counts the benchmark
// and the test share, skipping rows with more active than configured queues.
func drrRows(yield func(name string, queues, active int)) {
	for _, q := range []int{2, 33, 1001} {
		for _, a := range []int{1, 8} {
			if a <= q {
				yield(fmt.Sprintf("queues=%d/active=%d", q, a), q, a)
			}
		}
	}
}

func BenchmarkDRRDequeue(b *testing.B) {
	drrRows(func(name string, queues, active int) {
		b.Run(name, func(b *testing.B) {
			loop := dequeueLoop(b, queues, active)
			b.ReportAllocs()
			b.ResetTimer()
			loop(b.N)
		})
	})
}

// TestDRRSteadyStateAllocFree: one allocation anywhere in 4096 dequeues (and
// the pushes that refill them) fails, on every benchmark row.
func TestDRRSteadyStateAllocFree(t *testing.T) {
	drrRows(func(name string, queues, active int) {
		loop := dequeueLoop(t, queues, active)
		if allocs := testing.AllocsPerRun(1, func() { loop(4096) }); allocs != 0 {
			t.Errorf("%s: %v allocations in 4096 steady-state dequeues, want 0", name, allocs)
		}
	})
}
