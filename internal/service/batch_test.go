package service

// Tests for /v1/execute request coalescing: N concurrent identical
// requests must share one compilation and (timing permitting) far
// fewer executions than requests, with every response still correct,
// validated, and attributed to its own trace.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestExecuteBatchedCoalesces is the batching smoke test: N identical
// concurrent requests produce exactly one compile, and batches plus
// followers account for every request.
func TestExecuteBatchedCoalesces(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, BatchWindow: 150 * time.Millisecond, BatchMax: 32})
	req := execReq(CompileRequest{Source: srcL1, Processors: 8})

	const n = 8
	resps := make([]*ExecuteResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Execute(context.Background(), req)
		}(i)
	}
	wg.Wait()

	traces := map[string]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		r := resps[i]
		if !r.Validated || r.Mismatches != 0 {
			t.Errorf("request %d: validated=%v mismatches=%d", i, r.Validated, r.Mismatches)
		}
		if r.Engine != "kernel" {
			t.Errorf("request %d: engine = %q, want kernel", i, r.Engine)
		}
		if r.BatchSize < 1 {
			t.Errorf("request %d: batch size %d", i, r.BatchSize)
		}
		if r.TraceID == "" || traces[r.TraceID] {
			t.Errorf("request %d: trace id %q missing or duplicated", i, r.TraceID)
		}
		traces[r.TraceID] = true
	}

	m := s.Metrics()
	if got := m.Counter("compiles"); got != 1 {
		t.Errorf("compiles = %d, want exactly 1 for %d concurrent identical requests", got, n)
	}
	batches := m.Counter("execute_batches")
	followers := m.Counter("execute_batch_followers")
	if batches < 1 {
		t.Errorf("execute_batches = %d, want >= 1", batches)
	}
	if batches+followers != n {
		t.Errorf("batches (%d) + followers (%d) != requests (%d)", batches, followers, n)
	}
}

// TestExecuteBatchFull exercises the early-release path: a batch that
// reaches BatchMax executes without waiting out the window.
func TestExecuteBatchFull(t *testing.T) {
	// A window far beyond the test timeout: only the full-batch release
	// can finish this test quickly.
	s := newTestService(t, Config{Workers: 2, BatchWindow: time.Minute, BatchMax: 2, RequestTimeout: 2 * time.Minute})
	req := execReq(CompileRequest{Source: srcL1, Processors: 4})

	// Warm the plan cache so both batched requests meet in the
	// coalescing layer rather than in the compile single-flight.
	if _, err := s.Compile(context.Background(), req.CompileRequest); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Execute(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("full batch took %v; early release did not fire", elapsed)
	}
}

// TestExecuteBatchLeaderCancelled pins the detachment guard: a leader
// whose own request context dies mid-window (a hung-up client, a hedge
// loser released by a forwarding node) must not poison its followers —
// the execution runs to completion on their behalf.
func TestExecuteBatchLeaderCancelled(t *testing.T) {
	// A window far beyond the test timeout with BatchMax 3: neither the
	// timer nor the full-batch release can fire, so the leader leaves
	// the window only through its own cancellation — the exact path
	// under test. No wall-clock sleeps are load-bearing here.
	s := newTestService(t, Config{Workers: 2, BatchWindow: time.Minute, BatchMax: 3, RequestTimeout: 2 * time.Minute})
	req := execReq(CompileRequest{Source: srcL1, Processors: 8})

	// Warm the plan cache so leader and follower meet in the coalescing
	// layer rather than in the compile single-flight.
	if _, err := s.Compile(context.Background(), req.CompileRequest); err != nil {
		t.Fatal(err)
	}

	// In-package: watch the coalescing group to sequence the two
	// requests — the group must exist (leadership settled) before the
	// follower fires, and both must have met in it before the hang-up.
	waitJoined := func(n int) {
		t.Helper()
		waitFor(t, "the coalescing group has its members", func() bool { return groupJoined(&s.batches) >= n })
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Execute(leaderCtx, req)
		leaderErr <- err
	}()
	waitJoined(1)
	followerErr := make(chan error, 1)
	var followerResp *ExecuteResponse
	go func() {
		resp, err := s.Execute(context.Background(), req)
		followerResp = resp
		followerErr <- err
	}()
	waitJoined(2)
	cancelLeader()

	if err := <-followerErr; err != nil {
		t.Fatalf("follower poisoned by leader cancellation: %v", err)
	}
	if !followerResp.Validated {
		t.Errorf("follower result not validated")
	}
	<-leaderErr // leader outcome is its own business; just don't leak it
}

// TestCompileFlightLeaderCancelled pins the sibling guard on the
// compile flight: a joiner of a flight whose first caller died of its own
// cancellation must be served rather than inherit the dead caller's
// context error. The compile waits on the queue behind a busy worker, so
// both callers meet in the flight before the cancellation.
func TestCompileFlightLeaderCancelled(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	req := CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}

	gate := make(chan struct{})
	started := make(chan struct{})
	go s.pool.trySubmit(context.Background(), false, func(ctx context.Context) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Compile(leaderCtx, req)
		leaderErr <- err
	}()
	waitFor(t, "the leader's flight is registered", func() bool { return groupJoined(&s.compiles) >= 1 })
	joinerErr := make(chan error, 1)
	var resp *CompileResponse
	go func() {
		r, err := s.Compile(context.Background(), req)
		resp = r
		joinerErr <- err
	}()
	waitFor(t, "the joiner joins it", func() bool { return groupJoined(&s.compiles) >= 2 })
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled leader: err = %v, want its own context.Canceled", err)
	}
	close(gate)

	if err := <-joinerErr; err != nil {
		t.Fatalf("joiner poisoned by canceled leader: %v", err)
	}
	if resp == nil || resp.Plan == nil {
		t.Fatalf("joiner produced no plan: %+v", resp)
	}
	if got := s.Metrics().Counter("compiles"); got != 1 {
		t.Errorf("compiles = %d, want 1 for the flight both requests shared", got)
	}
}

// TestExecuteChaosSkipsBatching pins the guard: a request with fault
// injection active executes individually even when batching is on.
func TestExecuteChaosSkipsBatching(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, BatchWindow: 100 * time.Millisecond})
	req := execReq(CompileRequest{Source: srcL1, Processors: 4})
	req.ChaosSeed = 7

	resp, err := s.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batched || resp.BatchSize != 0 {
		t.Errorf("chaos request batched (size %d)", resp.BatchSize)
	}
	if got := s.Metrics().Counter("execute_batches"); got != 0 {
		t.Errorf("execute_batches = %d, want 0 for a chaos request", got)
	}
}
