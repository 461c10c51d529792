package service

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bfc/internal/harness"
	"bfc/internal/packet"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
)

// TestPoolBoundsDispatchesAndKeepsNoGoroutine runs two concurrent dispatches
// of three jobs on a pool of two: both share the one bound, the gauges show
// it, every record is delivered, and the drained pool holds no worker.
func TestPoolBoundsDispatchesAndKeepsNoGoroutine(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(2, new(telemetry.Gauge), new(telemetry.Gauge))
	var delivered atomic.Int32
	sink := func(int, *harness.Record, Origin) error {
		delivered.Add(1)
		return nil
	}
	errs := make(chan error, 2)
	for range 2 {
		cs := blockingSuite(3, started, release)
		go func() { errs <- p.Dispatch(context.Background(), cs, []int{0, 1, 2}, sink, nil) }()
	}
	<-started
	<-started
	// Both dispatches are in once four of the six jobs wait behind the two
	// that started; from then on nothing more may start.
	for deadline := time.Now().Add(10 * time.Second); p.queued.Value() != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want 4", p.queued.Value())
		}
	}
	p.mu.Lock()
	running := p.running
	p.mu.Unlock()
	if running != 2 || p.busy.Value() != 2 || len(started) != 0 {
		t.Fatalf("running = %d, busy = %d, %d more jobs started; want 2, 2, 0", running, p.busy.Value(), len(started))
	}
	close(release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if delivered.Load() != 6 || p.running != 0 || len(p.queue) != 0 || p.busy.Value() != 0 || p.queued.Value() != 0 {
		t.Fatalf("drained pool: delivered = %d, running = %d, queue = %d, busy = %d, queued = %d",
			delivered.Load(), p.running, len(p.queue), p.busy.Value(), p.queued.Value())
	}
}

// TestPoolDispatchEndsOnFirstError: the dispatch returns the failed job's
// error, and what it still had queued is skipped, not executed for nobody.
func TestPoolDispatchEndsOnFirstError(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	close(release)
	cs := blockingSuite(3, started, release)
	cs.Jobs[0].Flows = func(*topology.Topology) []*packet.Flow { panic("bad sweep point") }
	p := NewPool(1, new(telemetry.Gauge), new(telemetry.Gauge))
	err := p.Dispatch(context.Background(), cs, []int{0, 1, 2},
		func(int, *harness.Record, Origin) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), "panicked: bad sweep point") {
		t.Fatalf("dispatch returned %v, want the job's panic", err)
	}
	p.Wait()
	if len(started) != 0 {
		t.Fatalf("%d jobs started after their dispatch had failed", len(started))
	}
}
