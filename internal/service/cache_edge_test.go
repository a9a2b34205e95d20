package service

// Edge-case tests for the plan cache and the single-flight compile
// path: capacity-1 LRU behavior, follower cancellation while the
// leader's compile is in flight, and entry eviction racing the lazy
// exec-compile.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/obs"
)

// TestCacheEvictionEdges drives the LRU through boundary scenarios
// where the two bounds (entry count, byte footprint) interact with
// promotion and refresh.
func TestCacheEvictionEdges(t *testing.T) {
	type op struct {
		add   string // key to add (empty = get instead)
		bytes int64
		get   string
	}
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ops        []op
		wantKeys   []string // keys that must be present afterwards
		goneKeys   []string // keys that must have been evicted
		evictions  int64
	}{
		{
			name:       "capacity-1 every add evicts the previous",
			maxEntries: 1, maxBytes: 1 << 20,
			ops:       []op{{add: "a", bytes: 1}, {add: "b", bytes: 1}, {add: "c", bytes: 1}},
			wantKeys:  []string{"c"},
			goneKeys:  []string{"a", "b"},
			evictions: 2,
		},
		{
			name:       "capacity-1 refresh of the sole key does not evict",
			maxEntries: 1, maxBytes: 1 << 20,
			ops:       []op{{add: "k", bytes: 10}, {add: "k", bytes: 30}},
			wantKeys:  []string{"k"},
			evictions: 0,
		},
		{
			name:       "capacity-1 promotion via get cannot save the entry",
			maxEntries: 1, maxBytes: 1 << 20,
			ops:       []op{{add: "a", bytes: 1}, {get: "a"}, {add: "b", bytes: 1}},
			wantKeys:  []string{"b"},
			goneKeys:  []string{"a"},
			evictions: 1,
		},
		{
			name:       "byte bound exact fit keeps both entries",
			maxEntries: 8, maxBytes: 100,
			ops:       []op{{add: "a", bytes: 50}, {add: "b", bytes: 50}},
			wantKeys:  []string{"a", "b"},
			evictions: 0,
		},
		{
			name:       "byte bound one over evicts only the tail",
			maxEntries: 8, maxBytes: 100,
			ops:       []op{{add: "a", bytes: 50}, {add: "b", bytes: 50}, {add: "c", bytes: 1}},
			wantKeys:  []string{"b", "c"},
			goneKeys:  []string{"a"},
			evictions: 1,
		},
		{
			name:       "refresh growing past the byte bound evicts older entries",
			maxEntries: 8, maxBytes: 100,
			ops:       []op{{add: "a", bytes: 40}, {add: "b", bytes: 40}, {add: "b", bytes: 90}},
			wantKeys:  []string{"b"},
			goneKeys:  []string{"a"},
			evictions: 1,
		},
		{
			name:       "oversized entry is kept alone rather than thrashed",
			maxEntries: 8, maxBytes: 100,
			ops:       []op{{add: "a", bytes: 10}, {add: "huge", bytes: 500}},
			wantKeys:  []string{"huge"},
			goneKeys:  []string{"a"},
			evictions: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newPlanCache(tc.maxEntries, tc.maxBytes)
			for _, o := range tc.ops {
				if o.add != "" {
					c.add(entry(o.add, o.bytes))
				} else {
					c.get(o.get)
				}
			}
			for _, k := range tc.wantKeys {
				if _, ok := c.peek(k); !ok {
					t.Errorf("key %q missing", k)
				}
			}
			for _, k := range tc.goneKeys {
				if _, ok := c.peek(k); ok {
					t.Errorf("key %q survived eviction", k)
				}
			}
			st := c.stats()
			if st.Evictions != tc.evictions {
				t.Errorf("evictions = %d, want %d", st.Evictions, tc.evictions)
			}
			if st.Entries != len(tc.wantKeys) {
				t.Errorf("entries = %d, want %d", st.Entries, len(tc.wantKeys))
			}
			var wantBytes int64
			for _, k := range tc.wantKeys {
				e, _ := c.peek(k)
				wantBytes += e.bytes
			}
			if st.Bytes != wantBytes {
				t.Errorf("bytes = %d, want %d (accounting drifted across evictions)", st.Bytes, wantBytes)
			}
		})
	}
}

// A follower that cancels while the single-flight leader's compile is
// still in flight must get its own context error immediately; the
// leader is unaffected and its result still lands in the cache.
func TestSingleFlightFollowerCancelMidCompile(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 2})

	// Occupy the only worker so the leader's compile stays queued — "in
	// flight" but deterministically not finished.
	gate := make(chan struct{})
	started := make(chan struct{})
	go s.pool.trySubmit(context.Background(), false, func(ctx context.Context) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started

	req := CompileRequest{Source: srcL1, Processors: 4}
	type result struct {
		resp *CompileResponse
		err  error
	}
	leader := make(chan result, 1)
	go func() {
		resp, err := s.Compile(context.Background(), req)
		leader <- result{resp, err}
	}()
	// The leader has registered its flight once the map is non-empty.
	for {
		s.compiles.mu.Lock()
		n := len(s.compiles.flights)
		s.compiles.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}

	fctx, fcancel := context.WithCancel(context.Background())
	follower := make(chan result, 1)
	go func() {
		resp, err := s.Compile(fctx, req)
		follower <- result{resp, err}
	}()
	fcancel()
	if r := <-follower; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", r.err)
	}

	// The leader's compile proceeds to completion once the worker frees.
	close(gate)
	r := <-leader
	if r.err != nil {
		t.Fatalf("leader: %v", r.err)
	}
	if r.resp.Cached {
		t.Error("leader reported a cache hit")
	}
	// The flight is cleaned up and the plan is cached for later callers.
	s.compiles.mu.Lock()
	n := len(s.compiles.flights)
	s.compiles.mu.Unlock()
	if n != 0 {
		t.Errorf("%d flights leaked", n)
	}
	r2, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("leader's result did not reach the cache")
	}
}

// Evicting a cache entry must not disturb a lazy exec-compile already
// in flight on that entry: requests hold the entry pointer, so the
// compile completes, all concurrent callers share one program, and a
// later request for the evicted plan simply recompiles.
func TestEvictionWhileExecCompileInFlight(t *testing.T) {
	s := newTestService(t, Config{CacheEntries: 1})
	ctx := context.Background()

	eA, _, err := s.compileEntry(ctx, CompileRequest{Source: srcL1, Processors: 4}, obs.New("t"))
	if err != nil {
		t.Fatal(err)
	}
	if n := eA.comp.programBuilds.Load(); n != 0 {
		t.Fatalf("program built %d times before any execution; the lazy-compile race is vacuous", n)
	}
	// Race the lazy compile against eviction (the -race build checks
	// the lazy build's publication).
	var wg sync.WaitGroup
	progs := make([]any, 8)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, perr := eA.comp.program.get(ctx, s, nil)
			if perr != nil {
				t.Errorf("program: %v", perr)
			}
			progs[i] = p
		}(i)
	}
	if _, err := s.Compile(ctx, CompileRequest{Source: lang.Format(loop.L2()), Processors: 4}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if st := s.CacheStats(); st.Evictions == 0 || st.Entries != 1 {
		t.Errorf("capacity-1 cache did not evict the first plan: %+v", st)
	}
	for i := 1; i < len(progs); i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent lazy compiles produced distinct programs")
		}
	}
	if n := eA.comp.programBuilds.Load(); n != 1 {
		t.Errorf("%d concurrent callers built the program %d times, want once", len(progs), n)
	}

	// The evicted plan still executes (fresh compile, fresh entry) and
	// validates bit-exactly.
	resp, err := s.Execute(ctx, execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("evicted entry reported as cached")
	}
	if !resp.Validated {
		t.Error("re-compiled plan failed validation")
	}
}
