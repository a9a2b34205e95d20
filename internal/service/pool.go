package service

// Bounded worker pool. Requests are queued on a fixed-depth channel
// and executed by a fixed set of workers; callers block until their
// task completes or their context is done. Close() drains gracefully:
// new submissions are rejected, every already-accepted task still runs
// to completion and its caller receives the real result — nothing is
// dropped.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDraining is returned for submissions after Close() has begun.
var ErrDraining = errors.New("service: draining, not accepting new requests")

// ErrOverloaded is returned by admission control: the queue was at
// capacity at submission time, so the request is rejected immediately
// (HTTP 429 with Retry-After) instead of queueing behind a saturated
// pool until its deadline.
var ErrOverloaded = errors.New("service: overloaded, queue at capacity")

type taskResult struct {
	v   any
	err error
}

type task struct {
	ctx context.Context
	fn  func(ctx context.Context) (any, error)
	res chan taskResult
	enq time.Time // when the task entered the queue (admission feedback)
	// droppable marks work whose result is worthless past the SLO
	// target (executions): while the admission controller is shedding,
	// such a task that aged past the target is head-dropped at dequeue.
	// Compilations are never droppable — a late compile still populates
	// the caches, so running it is never wasted work.
	droppable bool
}

type pool struct {
	queue chan *task // closed once every accepted task has finished
	adm   *admission // nil-safe; observes queue delay + completions

	mu      sync.Mutex
	closed  bool
	pending sync.WaitGroup // accepted tasks not yet finished
	workers sync.WaitGroup

	inFlight atomic.Int64
}

func newPool(workers, queueDepth int) *pool {
	if workers <= 0 {
		workers = 4
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	p := &pool{queue: make(chan *task, queueDepth)}
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.workers.Done()
	for t := range p.queue {
		p.run(t)
	}
}

func (p *pool) run(t *task) {
	defer p.pending.Done()
	if !t.enq.IsZero() {
		now := time.Now()
		wait := now.Sub(t.enq)
		p.adm.observeQueueDelay(now, wait)
		// CoDel head-drop: while shedding, a droppable task that aged
		// past the SLO target is answered with its 429 now instead of
		// being run for a result its caller can no longer use.
		if t.droppable {
			if err := p.adm.admitAged(wait, len(p.queue)); err != nil {
				t.res <- taskResult{err: err}
				return
			}
		}
	}
	// The caller may have given up while the task sat in the queue;
	// don't burn a worker on an abandoned request.
	if err := t.ctx.Err(); err != nil {
		t.res <- taskResult{err: err}
		return
	}
	p.inFlight.Add(1)
	v, err := t.fn(t.ctx)
	p.inFlight.Add(-1)
	p.adm.observeDone(time.Now())
	t.res <- taskResult{v: v, err: err}
}

// trySubmit runs fn on a worker and returns its result, under
// fail-fast admission control. It fails with ErrDraining after close,
// and with the task's ctx.Err() when the caller gives up while queued
// (the worker then skips the task). Two ways to be shed: the SLO
// controller decides the measured queue delay has breached the latency
// target (429 before the queue fills), or the queue is physically at
// capacity. Both reject with an *OverloadError (unwrapping to
// ErrOverloaded) carrying a drain-rate-derived Retry-After, instead of
// blocking the caller until its deadline.
func (p *pool) trySubmit(ctx context.Context, droppable bool, fn func(ctx context.Context) (any, error)) (any, error) {
	if err := p.adm.gate(time.Now(), len(p.queue), droppable); err != nil {
		return nil, err
	}
	t := &task{ctx: ctx, fn: fn, res: make(chan taskResult, 1), enq: time.Now(), droppable: droppable}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrDraining
	}
	p.pending.Add(1)
	p.mu.Unlock()

	select {
	case p.queue <- t:
	default:
		p.pending.Done()
		return nil, p.adm.overloadFull(len(p.queue))
	}
	r := <-t.res
	return r.v, r.err
}

// draining reports whether close has begun.
func (p *pool) draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// queueDepth reports the number of queued-but-not-started tasks.
func (p *pool) queueDepth() int { return len(p.queue) }

// queueCap reports the queue capacity.
func (p *pool) queueCap() int { return cap(p.queue) }

// running reports the number of tasks currently executing on workers.
func (p *pool) running() int64 { return p.inFlight.Load() }

// close drains the pool: rejects new submissions, waits for every
// accepted task to finish, then stops the workers. Safe to call more
// than once.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.workers.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	// A task counts in pending from before its send until it has run or
	// its send failed, so nothing sends on the queue once pending is done.
	p.pending.Wait()
	close(p.queue)
	p.workers.Wait()
}
