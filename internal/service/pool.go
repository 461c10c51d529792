package service

import (
	"context"
	"sync"

	"bfc/internal/harness"
	"bfc/internal/telemetry"
)

// Pool is the one place in the service and fleet tiers where a job executes:
// a FIFO of jobs and at most size goroutines working through it. It is the
// Dispatcher a Service uses for every suite it does not hand to a fleet, the
// executor a fleet Coordinator gives a batch back to when no worker can take
// it, and the engine under a fleet worker's Executor — so whichever way a job
// arrives it is bounded by the same number and counted by the same gauges.
//
// Workers are started as work arrives and exit when the queue is empty: an
// idle pool holds no goroutine and needs no Close. Wait blocks until the
// workers running at that moment have exited.
type Pool struct {
	size         int
	busy, queued *telemetry.Gauge

	mu      sync.Mutex
	queue   []work
	running int            // live worker goroutines, at most size
	wg      sync.WaitGroup // the same goroutines, for Wait
}

// work is one queued job of a dispatch. ctx ends with the dispatch and fail
// ends it with a cause; done is buffered to the dispatch's job count, so a
// worker's send never blocks, even after that Dispatch has returned.
type work struct {
	ctx  context.Context
	fail context.CancelCauseFunc
	job  *harness.Job
	idx  int
	sink Sink
	done chan<- struct{}
}

// NewPool makes a pool of at most size concurrent executions (at least one).
// It keeps busy at the number of jobs executing and queued at the number
// waiting for a worker.
func NewPool(size int, busy, queued *telemetry.Gauge) *Pool {
	return &Pool{size: max(size, 1), busy: busy, queued: queued}
}

// Dispatch implements Dispatcher: it queues the pending jobs behind whatever
// other dispatches queued before, and returns when each has been delivered to
// sink, with the first execution or sink error, or when ctx ends. From the
// first error on, and once it has returned, none of its jobs starts any more —
// a worker that pops one skips it — but a job already executing runs to its
// end and its record still reaches sink: finished work is never thrown away.
// local is ignored: the pool is where local work runs.
func (p *Pool) Dispatch(ctx context.Context, cs *CompiledSuite, pending []int, sink Sink, _ Dispatcher) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	done := make(chan struct{}, len(pending))
	p.mu.Lock()
	for _, idx := range pending {
		p.queue = append(p.queue, work{
			ctx: ctx, fail: cancel, job: &cs.Jobs[idx], idx: idx, sink: sink, done: done,
		})
	}
	p.queued.Set(int64(len(p.queue)))
	start := min(len(p.queue), p.size-p.running)
	p.running += start
	p.wg.Add(start)
	p.mu.Unlock()
	for range start {
		go p.worker()
	}
	for range pending {
		select {
		case <-done:
		case <-ctx.Done():
			return context.Cause(ctx) // a job's or the sink's error, or the caller's ctx.Err()
		}
	}
	return nil
}

// Wait blocks until the queue has drained and the workers have exited; once
// every dispatch has ended, that is the wait for the jobs still executing.
func (p *Pool) Wait() { p.wg.Wait() }

// worker executes queued jobs until it finds the queue empty.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.running--
			p.mu.Unlock()
			return
		}
		w := p.queue[0]
		// Zero the slot: the backing array would otherwise keep the sink
		// closure, and whatever it captured, reachable after the dispatch.
		p.queue[0] = work{}
		p.queue = p.queue[1:]
		p.queued.Set(int64(len(p.queue)))
		p.mu.Unlock()
		if w.ctx.Err() != nil {
			continue // its dispatch has failed or returned; nobody waits for this job
		}
		p.busy.Inc()
		rec, err := w.job.Execute()
		p.busy.Dec()
		if err == nil {
			err = w.sink(w.idx, rec, Origin{Where: "local"})
		}
		if err != nil {
			w.fail(err)
		} else {
			w.done <- struct{}{}
		}
	}
}
