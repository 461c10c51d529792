package harness

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bfc/internal/packet"
	"bfc/internal/sim"
	"bfc/internal/telemetry"
	"bfc/internal/topology"
	"bfc/internal/units"
)

// blockingJobs builds n controllable jobs: each job's Flows builder sends its
// name on started and then blocks until release is closed.
func blockingJobs(n int, started chan<- string, release <-chan struct{}) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		name := fmt.Sprintf("test/block/job=%d", i)
		jobs[i] = Job{
			Name:   name,
			Scheme: sim.SchemeBFC,
			Meta:   map[string]string{"job": fmt.Sprint(i)},
			Topology: func() *topology.Topology {
				return topology.NewSingleSwitch(topology.SingleSwitchConfig{
					NumHosts: 2, LinkRate: 100 * units.Gbps, LinkDelay: units.Microsecond,
				})
			},
			Flows: func(topo *topology.Topology) []*packet.Flow {
				started <- name
				<-release
				hosts := topo.Hosts()
				return []*packet.Flow{{ID: 1, Src: hosts[0], Dst: hosts[1], Size: units.KB}}
			},
			Options: []func(*sim.Options){func(o *sim.Options) {
				o.Duration = 10 * units.Microsecond
				o.Drain = 50 * units.Microsecond
			}},
		}
	}
	return jobs
}

// TestPoolBoundsDispatchesAndKeepsNoGoroutine runs two concurrent dispatches
// of three jobs on a pool of two: both share the one bound, the gauges show
// it, every record is delivered, and the drained pool holds no worker.
func TestPoolBoundsDispatchesAndKeepsNoGoroutine(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(2, new(telemetry.Gauge), new(telemetry.Gauge))
	var delivered atomic.Int32
	sink := func(int, *Record, Origin) error {
		delivered.Add(1)
		return nil
	}
	errs := make(chan error, 2)
	for range 2 {
		jobs := blockingJobs(3, started, release)
		go func() { errs <- p.Dispatch(context.Background(), jobs, []int{0, 1, 2}, sink) }()
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
	jobs := blockingJobs(3, started, release)
	jobs[0].Flows = func(*topology.Topology) []*packet.Flow { panic("bad sweep point") }
	p := NewPool(1, new(telemetry.Gauge), new(telemetry.Gauge))
	err := p.Dispatch(context.Background(), jobs, []int{0, 1, 2},
		func(int, *Record, Origin) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "panicked: bad sweep point") {
		t.Fatalf("dispatch returned %v, want the job's panic", err)
	}
	p.Wait()
	if len(started) != 0 {
		t.Fatalf("%d jobs started after their dispatch had failed", len(started))
	}
}

// TestRunnerReturnsAfterInFlightJobs: on two workers job A fails at once
// while job B is still executing. Run returns A's error, but only once B has
// finished — and B's record is in the store by then, not thrown away.
func TestRunnerReturnsAfterInFlightJobs(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 2)
	release := make(chan struct{})
	jobs := blockingJobs(2, started, release)
	// A waits for B to be executing, so both are in flight when A fails.
	jobs[0].Flows = func(*topology.Topology) []*packet.Flow {
		<-started
		panic("job A fails")
	}
	returned := make(chan error, 1)
	go func() {
		_, err := (&Runner{Parallel: 2, Store: store}).Run(jobs)
		returned <- err
	}()
	// "Not returned yet" has no event to wait on: give a Run that does not
	// wait for B time to return wrongly. A correct Run never can.
	select {
	case err := <-returned:
		t.Fatalf("Run returned (%v) while job B was still executing", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-returned; err == nil || !strings.Contains(err.Error(), "job A fails") {
		t.Fatalf("Run returned %v, want job A's error", err)
	}
	if !store.Has(jobs[1].Hash()) {
		t.Fatal("job B finished after A failed, but its artifact is not in the store")
	}
}

// TestRunnerProgressElapsedIsExecuteTime: Progress.Elapsed is the wall time
// of the job's Execute — a job whose Flows sleeps 30 ms reports at least that
// — and a job resumed from the store reports Cached with zero Elapsed. The
// benchmark's harness.job_execute_s and fleet.overhead_frac sum it.
func TestRunnerProgressElapsedIsExecuteTime(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(t)[:1]
	flows := jobs[0].Flows
	jobs[0].Flows = func(topo *topology.Topology) []*packet.Flow {
		time.Sleep(30 * time.Millisecond)
		return flows(topo)
	}
	for _, resume := range []bool{false, true} {
		var got []Progress
		r := &Runner{Store: store, Resume: resume, Progress: func(p Progress) { got = append(got, p) }}
		if _, err := r.Run(jobs); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("resume=%v: %d progress reports, want 1", resume, len(got))
		}
		p := got[0]
		switch {
		case !resume && (p.Cached || p.Elapsed < 30*time.Millisecond):
			t.Errorf("executed job reported Cached=%v Elapsed=%v, want false and >= 30ms", p.Cached, p.Elapsed)
		case resume && (!p.Cached || p.Elapsed != 0):
			t.Errorf("resumed job reported Cached=%v Elapsed=%v, want true and 0", p.Cached, p.Elapsed)
		}
	}
}
