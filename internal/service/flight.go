package service

// Coalescing, sound because a plan and all built from it are a pure
// function of (canonical nest, strategy, processors): a group shares one
// run of fn per key while it runs (the compile flight), and a lazy builds
// a cache entry's value once and keeps it.
// fn runs on its own goroutine, so every waiter leaves on its own context;
// a panic in fn is contained there once, on the first caller's trace, and
// every waiter gets that error.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"commfree/internal/obs"
)

// A flight is one run of fn. done is closed once v and err are final;
// waiters, the callers still waiting, is guarded by the group's mutex.
type flight[V any] struct {
	done    chan struct{}
	v       V
	err     error
	waiters int
	cancel  context.CancelFunc // ends fn's context
}

// panicError marks an error Service.contain made of a panic: no caller
// takes it for fn's own refusal, and a lazy does not keep it at once.
type panicError struct{ error }

func (e panicError) Unwrap() error { return e.error }

func panicked(err error) bool { return errors.As(err, new(panicError)) }

// group coalesces calls by key while fn runs.
type group[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
}

// do returns the result of the run of fn for key that this call joins,
// or starts (led).
func (g *group[V]) do(ctx context.Context, s *Service, trc *obs.Trace, key string, fn func(ctx context.Context) (V, error)) (v V, led bool, err error) {
	g.mu.Lock()
	f := g.flights[key]
	if led = f == nil; led {
		f = &flight[V]{done: make(chan struct{})}
		var fctx context.Context
		fctx, f.cancel = context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		if g.flights == nil {
			g.flights = map[string]*flight[V]{}
		}
		g.flights[key] = f
		go g.run(fctx, s, trc, key, f, fn)
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		return f.v, led, f.err
	case <-ctx.Done():
	}
	g.mu.Lock()
	if f.waiters--; f.waiters == 0 {
		g.release(key, f) // the next caller starts afresh
		f.cancel()
	}
	g.mu.Unlock()
	return v, led, ctx.Err()
}

// release unregisters f if it still holds key; g.mu is held.
func (g *group[V]) release(key string, f *flight[V]) {
	if g.flights[key] == f {
		delete(g.flights, key)
	}
}

func (g *group[V]) run(ctx context.Context, s *Service, trc *obs.Trace, key string, f *flight[V], fn func(context.Context) (V, error)) {
	defer func() {
		g.mu.Lock()
		g.release(key, f)
		g.mu.Unlock()
		f.cancel()
		close(f.done)
	}()
	defer s.contain(trc, &f.err)
	f.v, f.err = fn(ctx)
}

// lazy builds a value on first use through a group and keeps it, as it
// keeps a returned error. A first panic is not kept, so the next caller
// builds again; a second is. Once kept, get is one atomic load. A build
// whose callers all left runs on; a later caller may start another.
type lazy[V any] struct {
	build    func(s *Service, trc *obs.Trace) (V, error)
	kept     atomic.Pointer[flight[V]]
	panicked atomic.Bool
	g        group[V]
}

func (l *lazy[V]) get(ctx context.Context, s *Service, trc *obs.Trace) (V, error) {
	if f := l.kept.Load(); f != nil {
		return f.v, f.err
	}
	v, _, err := l.g.do(ctx, s, trc, "", func(context.Context) (v V, err error) {
		if f := l.kept.Load(); f != nil {
			return f.v, f.err
		}
		defer func() {
			if !panicked(err) || l.panicked.Swap(true) {
				l.kept.Store(&flight[V]{v: v, err: err})
			}
		}()
		defer s.contain(trc, &err)
		return l.build(s, trc)
	})
	return v, err
}
