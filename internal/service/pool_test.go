package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsTasks(t *testing.T) {
	p := newPool(2, 20) // room for every task: a full queue sheds, it does not block
	defer p.close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.trySubmit(context.Background(), false, func(context.Context) (any, error) {
				n.Add(1)
				return "ok", nil
			})
			if err != nil || v != "ok" {
				t.Errorf("trySubmit: %v %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n.Load() != 20 {
		t.Errorf("ran %d tasks", n.Load())
	}
}

// occupyWorkers blocks n workers of p until the returned release
// function is called, returning only once all n are running.
func occupyWorkers(p *pool, n int) (release func()) {
	gate := make(chan struct{})
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go p.trySubmit(context.Background(), false, func(context.Context) (any, error) {
			started <- struct{}{}
			<-gate
			return nil, nil
		})
	}
	for i := 0; i < n; i++ {
		<-started
	}
	return func() { close(gate) }
}

func TestPoolCallerCancelWhileQueued(t *testing.T) {
	p := newPool(1, 4)
	defer p.close()
	release := occupyWorkers(p, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.trySubmit(ctx, false, func(context.Context) (any, error) { return nil, nil })
		done <- err
	}()
	// The task is queued (not running: the only worker is occupied)
	// once the queue is non-empty; cancel it there.
	for p.queueDepth() == 0 {
		runtime.Gosched()
	}
	cancel()
	release()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestPoolCloseDrainsAcceptedTasks(t *testing.T) {
	p := newPool(2, 32)
	const n = 16
	var completed atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.trySubmit(context.Background(), false, func(context.Context) (any, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-gate
				completed.Add(1)
				return nil, nil
			})
			errs <- err
		}()
	}
	// Both workers are executing and the other 14 tasks are queued:
	// every submission has been accepted before the drain begins.
	<-started
	<-started
	for p.queueDepth() < n-2 {
		runtime.Gosched()
	}

	closed := make(chan struct{})
	go func() {
		p.close() // must block until every accepted task has finished
		close(closed)
	}()
	// Wait for close to flip the accept flag, then prove rejection and
	// that the drain is still blocked on the gated tasks.
	for {
		p.mu.Lock()
		c := p.closed
		p.mu.Unlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	if _, err := p.trySubmit(context.Background(), false, func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrDraining) {
		t.Errorf("trySubmit during drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-closed:
		t.Fatal("close returned with accepted tasks still blocked")
	default:
	}

	close(gate)
	<-closed
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("accepted task dropped: %v", err)
		}
	}
	if completed.Load() != n {
		t.Errorf("%d/%d accepted tasks completed", completed.Load(), n)
	}
}
