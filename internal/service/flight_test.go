package service

// Tests for the coalescing primitive (flight.go) and for the panic and
// cancellation behaviour at each place the service coalesces.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"commfree/internal/exec"
	"commfree/internal/loop"
	"commfree/internal/obs"
	"commfree/internal/store"
)

const injected = "injected: the build fell over"

// gateStore is a plan store whose first Get waits for release, and
// whose first call of op ("get" or "put") then panics; every other call
// is the Mem store's.
type gateStore struct {
	store.Store
	op             string
	gated, tripped atomic.Bool
	release        chan struct{}
}

func (g *gateStore) trip(op string) {
	if g.op == op && g.tripped.CompareAndSwap(false, true) {
		panic(injected)
	}
}

func (g *gateStore) Get(key string) (*store.Record, bool, error) {
	if g.gated.CompareAndSwap(false, true) {
		<-g.release
	}
	g.trip("get")
	return g.Store.Get(key)
}

func (g *gateStore) Put(rec *store.Record) error {
	g.trip("put")
	return g.Store.Put(rec)
}

// panicOnce makes l's next build wait for release and then panic; the
// build after that is l's own again.
func panicOnce[V any](l *lazy[V], release chan struct{}) {
	build := l.build
	var fired atomic.Bool
	l.build = func(s *Service, trc *obs.Trace) (V, error) {
		if fired.CompareAndSwap(false, true) {
			<-release
			panic(injected)
		}
		return build(s, trc)
	}
}

// lazyJoined counts the callers waiting for l's running build.
func lazyJoined[V any](l *lazy[V]) int { return groupJoined(&l.g) }

// groupJoined counts the callers of g's largest registered flight.
func groupJoined[V any](g *group[V]) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, f := range g.flights {
		n = max(n, f.waiters)
	}
	return n
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicSite is one place a coalescing primitive runs fn, armed with one
// injected panic.
type panicSite struct {
	s    *Service
	call func(ctx context.Context) error // one request for the key
	// joined counts the requests that share the run the panic fires in.
	joined func() int
	// release lets the panic fire; disarm undoes an injection that does
	// not undo itself.
	release chan struct{}
	disarm  func()
	value   string // what the panic span's value holds
	// next is the request after the panic (call when nil).
	next func(ctx context.Context) error
}

func compileCall(s *Service, req CompileRequest) func(context.Context) error {
	return func(ctx context.Context) error { _, err := s.Compile(ctx, req); return err }
}

func executeCall(s *Service, req CompileRequest) func(context.Context) error {
	return func(ctx context.Context) error {
		resp, err := s.Execute(ctx, execReq(req))
		if err == nil && !resp.Validated {
			return errors.New("execute did not validate")
		}
		return err
	}
}

// warmEntry compiles req and returns its cache entry.
func warmEntry(t *testing.T, s *Service, req CompileRequest) *cacheEntry {
	t.Helper()
	e, _, err := s.compileEntry(context.Background(), req, obs.New("warm"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPanicAtEachFlightSite injects one panic at each place the service
// coalesces and checks that the request gets a 500 naming a trace that
// carries the panic span; that a concurrent request sharing the run gets
// the same error well before RequestTimeout; that the panic is counted
// once; that in_flight returns to 0 and no key stays registered; and that
// the next request for the key is a correct 200.
func TestPanicAtEachFlightSite(t *testing.T) {
	req := CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}
	// A plan past the kernel's dense cap runs on the map oracle, through
	// the batch leader and the keyed sequential reference.
	overCap := CompileRequest{Source: srcOverCap, Strategy: "duplicate", Processors: 4}
	lazySite := func(t *testing.T, req CompileRequest, pick func(c *compiled) (arm func(chan struct{}), joined func() int)) panicSite {
		s := newTestService(t, Config{Workers: 2})
		arm, joined := pick(warmEntry(t, s, req).comp)
		release := make(chan struct{})
		arm(release)
		return panicSite{s: s, call: executeCall(s, req), joined: joined, release: release, value: injected}
	}
	storeSite := func(t *testing.T, op string) panicSite {
		gs := &gateStore{Store: store.NewMem(0), op: op, release: make(chan struct{})}
		s := newTestService(t, Config{Workers: 2, Store: gs})
		// The next request compiles again, as after an eviction: a key
		// left registered would hold it until its deadline.
		evict := func() {
			for _, e := range s.cache.entries() {
				s.cache.remove(e)
			}
		}
		return panicSite{s: s, call: compileCall(s, req), joined: func() int { return groupJoined(&s.compiles) }, release: gs.release, disarm: evict, value: injected}
	}
	sites := map[string]func(t *testing.T) panicSite{
		"compile pooled part": func(t *testing.T) panicSite { return storeSite(t, "get") },
		"compile tail":        func(t *testing.T) panicSite { return storeSite(t, "put") },
		"batch leader": func(t *testing.T) panicSite {
			// A node of the simulated machine panics: its statement reads
			// a loop index the nest does not have.
			s := newTestService(t, Config{Workers: 2, BatchWindow: time.Minute, BatchMax: 2, RequestTimeout: 2 * time.Minute})
			body := warmEntry(t, s, overCap).comp.res.Iter.Nest.Body
			tree := body[0].Tree
			body[0].Tree = &loop.ExprTree{Op: loop.ExprIndex, Arg: 99}
			joined := func() int {
				if s.Metrics().Counter("execute_batches") > 0 {
					return 1 + int(s.Metrics().Counter("execute_batch_followers"))
				}
				return groupJoined(&s.batches)
			}
			call := executeCall(s, overCap)
			pair := func(ctx context.Context) error {
				errs := make(chan error, 2)
				for range 2 {
					go func() { errs <- call(ctx) }()
				}
				return errors.Join(<-errs, <-errs)
			}
			return panicSite{s: s, call: call, joined: joined, release: make(chan struct{}),
				disarm: func() { body[0].Tree = tree }, value: "index out of range", next: pair}
		},
		"program build": func(t *testing.T) panicSite {
			return lazySite(t, req, func(c *compiled) (func(chan struct{}), func() int) {
				return func(r chan struct{}) { panicOnce(&c.program, r) }, func() int { return lazyJoined(&c.kernel) }
			})
		},
		"kernel build": func(t *testing.T) panicSite {
			return lazySite(t, req, func(c *compiled) (func(chan struct{}), func() int) {
				return func(r chan struct{}) { panicOnce(&c.kernel, r) }, func() int { return lazyJoined(&c.kernel) }
			})
		},
		"reference build": func(t *testing.T) panicSite {
			return lazySite(t, req, func(c *compiled) (func(chan struct{}), func() int) {
				return func(r chan struct{}) { panicOnce(&c.reference, r) }, func() int { return lazyJoined(&c.reference) }
			})
		},
		"sequential build": func(t *testing.T) panicSite {
			return lazySite(t, overCap, func(c *compiled) (func(chan struct{}), func() int) {
				return func(r chan struct{}) { panicOnce(&c.sequential, r) }, func() int { return lazyJoined(&c.sequential) }
			})
		},
		"plan decode": func(t *testing.T) panicSite {
			st := store.NewMem(0)
			if _, err := newTestService(t, Config{Store: st}).Compile(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			s := newTestService(t, Config{Workers: 2, Store: st})
			e := warmEntry(t, s, req) // revives; decodes nothing
			release := make(chan struct{})
			panicOnce(&e.decoded, release)
			return panicSite{s: s, call: compileCall(s, req), joined: func() int { return lazyJoined(&e.decoded) }, release: release, value: injected}
		},
	}
	for name, setup := range sites {
		t.Run(name, func(t *testing.T) {
			site := setup(t)
			s := site.s
			errs := make(chan error, 2)
			go func() { errs <- site.call(context.Background()) }()
			waitFor(t, "the first request waits where the panic fires", func() bool { return site.joined() >= 1 })
			go func() { errs <- site.call(context.Background()) }()
			waitFor(t, "the second request joins it", func() bool { return site.joined() >= 2 })
			close(site.release)

			var got [2]error
			for i := range got {
				select {
				case got[i] = <-errs:
				case <-time.After(10 * time.Second):
					t.Fatalf("request %d has no answer 10 s after the panic", i)
				}
			}
			if got[0] == nil || got[1] == nil || got[0].Error() != got[1].Error() {
				t.Fatalf("errors %v and %v, want one error for both", got[0], got[1])
			}
			m := traceInError.FindStringSubmatch(got[0].Error())
			if statusFor(got[0]) != http.StatusInternalServerError || m == nil {
				t.Fatalf("err = %v, want a 500 naming its trace", got[0])
			}
			value := ""
			if trc := s.Traces().Get(m[1]); trc != nil {
				for _, sp := range trc.Spans() {
					for _, a := range sp.Attrs {
						if sp.Name == "panic" && a.Key == "value" {
							value = a.Str
						}
					}
				}
			}
			if !strings.Contains(value, site.value) {
				t.Errorf("trace %s: panic value %q, want one naming %q", m[1], value, site.value)
			}
			if n := s.Metrics().Counter("panics"); n != 1 {
				t.Errorf("panics = %d, want 1", n)
			}
			if n := s.Metrics().Snapshot().Gauges["in_flight"]; n != 0 {
				t.Errorf("in_flight = %d after the panic", n)
			}
			if n := groupJoined(&s.compiles) + groupJoined(&s.batches); n != 0 {
				t.Errorf("a flight is still registered with %d callers", n)
			}

			if site.disarm != nil {
				site.disarm()
			}
			if site.next == nil {
				site.next = site.call
			}
			if err := site.next(context.Background()); err != nil {
				t.Errorf("the next request: %v", err)
			}
		})
	}
}

// TestNodePanicIsContained: a panic on a simulated node's goroutine is a
// 500 naming the request's trace, not the end of the process; the daemon
// still answers /healthz and the next request.
func TestNodePanicIsContained(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := CompileRequest{Source: srcOverCap, Processors: 4}
	body := warmEntry(t, s, req).comp.res.Iter.Nest.Body
	tree := body[0].Tree
	body[0].Tree = &loop.ExprTree{Op: loop.ExprIndex, Arg: 99}

	resp, text := postJSON(t, ts.URL+"/v1/execute", req)
	if resp.StatusCode != http.StatusInternalServerError || !traceInError.Match(text) {
		t.Fatalf("status %d, body %s; want a 500 naming its trace", resp.StatusCode, text)
	}
	if got := s.Metrics().Counter("panics"); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panic: %v %v", resp, err)
	}
	body[0].Tree = tree
	if resp, text := postJSON(t, ts.URL+"/v1/execute", req); resp.StatusCode != http.StatusOK {
		t.Errorf("execute after the panic: status %d (body %s)", resp.StatusCode, text)
	}
}

// TestLazyFollowerLeavesOnItsContext: a request waiting for another's
// slow kernel build returns its own context's error at once, freeing its
// worker, while the build goes on for whoever still wants it.
func TestLazyFollowerLeavesOnItsContext(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	req := CompileRequest{Source: srcL1, Processors: 4}
	c := warmEntry(t, s, req).comp
	build, release := c.kernel.build, make(chan struct{})
	c.kernel.build = func(s *Service, trc *obs.Trace) (*exec.Kernel, error) {
		<-release
		return build(s, trc)
	}
	first := make(chan error, 1)
	go func() { first <- executeCall(s, req)(context.Background()) }()
	waitFor(t, "the kernel build starts", func() bool { return lazyJoined(&c.kernel) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := executeCall(s, req)(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("follower err = %v, want its own context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("follower left %v after its deadline", d)
	}
	close(release)
	if err := <-first; err != nil {
		t.Errorf("the request that started the build: %v", err)
	}
}

// TestFlightContextEndsWithItsLastWaiter: fn's context outlives the
// caller that started it while another waits, and ends once none is left.
func TestFlightContextEndsWithItsLastWaiter(t *testing.T) {
	s := newTestService(t, Config{})
	var g group[int]
	started, fnDone := make(chan context.Context, 1), make(chan error, 1)
	fn := func(ctx context.Context, _ int) (int, error) {
		started <- ctx
		<-ctx.Done()
		fnDone <- ctx.Err()
		return 0, ctx.Err()
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { _, _, err := g.do(ctxA, s, nil, "k", fn); errA <- err }()
	fctx := <-started
	go func() { _, _, err := g.do(ctxB, s, nil, "k", fn); errB <- err }()
	waitFor(t, "the second caller joins", func() bool { return groupJoined(&g) == 2 })

	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Errorf("first caller: %v, want its own context.Canceled", err)
	}
	if fctx.Err() != nil {
		t.Fatal("fn's context ended with a waiter left")
	}
	cancelB()
	if err := <-errB; !errors.Is(err, context.Canceled) {
		t.Errorf("second caller: %v, want its own context.Canceled", err)
	}
	if err := <-fnDone; !errors.Is(err, context.Canceled) {
		t.Errorf("fn's context: %v, want canceled once no waiter is left", err)
	}
	waitFor(t, "the key is released", func() bool { return groupJoined(&g) == 0 })
}

// TestLazyKeepsWhatItBuilt: a value and a returned error are kept; a
// first panic is not, a second is; and a kept value costs no allocation.
func TestLazyKeepsWhatItBuilt(t *testing.T) {
	s := newTestService(t, Config{})
	ctx := context.Background()
	builds := 0
	refused := errors.New("refused")
	for _, c := range []struct {
		name   string
		build  func() (int, error)
		builds int // after three gets
	}{
		{"value", func() (int, error) { return 7, nil }, 1},
		{"error", func() (int, error) { return 0, refused }, 1},
		{"panic", func() (int, error) { panic(injected) }, 2},
	} {
		builds = 0
		l := &lazy[int]{build: func(*Service, *obs.Trace) (int, error) { builds++; return c.build() }}
		var errs []error
		for i := 0; i < 3; i++ {
			_, err := l.get(ctx, s, nil)
			errs = append(errs, err)
		}
		if builds != c.builds {
			t.Errorf("%s: %d builds over three gets, want %d", c.name, builds, c.builds)
		}
		if c.name == "panic" && (!panicked(errs[0]) || errs[2] != errs[1]) {
			t.Errorf("panic: errors %v, want the second panic's kept", errs)
		}
	}
	l := &lazy[int]{build: func(*Service, *obs.Trace) (int, error) { return 7, nil }}
	if _, err := l.get(ctx, s, nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = l.get(ctx, s, nil) }); n != 0 {
		t.Errorf("a kept value costs %v allocations, want 0", n)
	}
}
