package harness

import (
	"context"
	"sync"
	"time"

	"bfc/internal/telemetry"
)

// Pool is the one place in the tree where a job executes: a FIFO of jobs and
// at most size goroutines working through it. Runner.Run executes on a pool
// of its own; a service executes every suite it does not hand to a fleet on
// one, a fleet coordinator gives a batch back to that pool when no worker can
// take it, and a fleet worker's Executor owns one — so whichever way a job
// arrives it is bounded by a pool's size, counted by its gauges and timed in
// the same place.
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

// Sink receives one executed or fetched record and owns it from then on: it
// persists the record, counts it, and folds it into whatever waits for it. It
// must be safe for concurrent use — pool workers (and a fleet coordinator's
// Dispatch goroutine) deliver through the same function — and must persist
// before it looks at what waits: a record whose suite has ended is still
// kept. An error fails the dispatch that delivered the record.
type Sink func(idx int, rec *Record, origin Origin) error

// Origin says where a delivered record came from.
type Origin struct {
	// Cached marks a record satisfied from a store with no execution anywhere.
	Cached bool
	// Where names the executor or store: "local" for this process's pool, a
	// fleet worker's base URL otherwise.
	Where string
	// Elapsed is the wall time of Job.Execute alone (zero for a record that
	// was not executed here). It is reported, never persisted.
	Elapsed time.Duration
}

// work is one queued job of a dispatch. ctx ends with the dispatch and fail
// ends it with a cause; done is buffered to the dispatch's job count, so a
// worker's send never blocks, even after that Dispatch has returned.
type work struct {
	ctx  context.Context
	fail context.CancelCauseFunc
	job  *Job
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

// Dispatch queues the pending jobs (indexes into jobs) behind whatever other
// dispatches queued before, and returns when each has been delivered to sink,
// with the first execution or sink error, or when ctx ends. From the first
// error on, and once it has returned, none of its jobs starts any more — a
// worker that pops one skips it — but a job already executing runs to its end
// and its record still reaches sink: finished work is never thrown away. Wait
// is the wait for those.
func (p *Pool) Dispatch(ctx context.Context, jobs []Job, pending []int, sink Sink) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	done := make(chan struct{}, len(pending))
	p.mu.Lock()
	for _, idx := range pending {
		p.queue = append(p.queue, work{
			ctx: ctx, fail: cancel, job: &jobs[idx], idx: idx, sink: sink, done: done,
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
		start := time.Now()
		rec, err := w.job.Execute()
		elapsed := time.Since(start)
		p.busy.Dec()
		if err == nil {
			err = w.sink(w.idx, rec, Origin{Where: "local", Elapsed: elapsed})
		}
		if err != nil {
			w.fail(err)
		} else {
			w.done <- struct{}{}
		}
	}
}
