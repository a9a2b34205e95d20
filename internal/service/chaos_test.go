package service

// Service-level resilience tests: fault injection through /v1/execute,
// whole-run retry with epoch advance, graceful degradation to the
// sequential oracle, and admission control under a saturated pool.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"commfree/internal/chaos"
)

// Under the default chaos mix, per-block retry inside the engines must
// absorb every scheduled fault: the request succeeds on the first
// whole-run attempt, validates exactly, and reports what was injected.
func TestExecuteChaosRecovers(t *testing.T) {
	s := newTestService(t, Config{ChaosSeed: 7})
	var faults int64
	for seed := int64(1); seed <= 10; seed++ {
		req := execReq(CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4})
		req.ChaosSeed = seed
		resp, err := s.Execute(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !resp.Validated || resp.Mismatches != 0 {
			t.Errorf("seed %d: chaos run not validated (%d/%d mismatches)", seed, resp.Mismatches, resp.Elements)
		}
		if resp.InterNodeMessages != 0 {
			t.Errorf("seed %d: %d inter-node messages", seed, resp.InterNodeMessages)
		}
		if resp.ChaosSeed != seed {
			t.Errorf("seed %d echoed as %d", seed, resp.ChaosSeed)
		}
		if resp.Degraded || resp.Retries != 0 {
			t.Errorf("seed %d: default mix needed run-level recovery (retries=%d degraded=%v)", seed, resp.Retries, resp.Degraded)
		}
		if resp.Chaos == nil {
			t.Fatalf("seed %d: no chaos stats", seed)
		}
		faults += resp.Chaos.Faults
	}
	if faults == 0 {
		t.Error("no faults injected across 10 seeds — chaos path is vacuous")
	}
	snap := s.MetricsDocument()
	if snap.Gauges["chaos_enabled"] != 1 {
		t.Errorf("chaos_enabled = %d, want 1", snap.Gauges["chaos_enabled"])
	}
	if snap.Counters["chaos_faults"] != faults {
		t.Errorf("chaos_faults counter = %d, want %d", snap.Counters["chaos_faults"], faults)
	}
}

// A persistent schedule outlasts both the per-block and the whole-run
// retry budgets: the request must degrade to the sequential oracle and
// still return a validated result.
func TestExecuteChaosDegradesToSequential(t *testing.T) {
	s := newTestService(t, Config{
		ChaosSeed: 3,
		Chaos:     chaos.Config{BlockFailProb: 1, MaxBlockFails: 1 << 20},
	})
	resp, err := s.Execute(context.Background(), execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("persistent chaos did not degrade")
	}
	if resp.Engine != "sequential" {
		t.Errorf("engine = %q, want sequential", resp.Engine)
	}
	if resp.Retries != 2 {
		t.Errorf("retries = %d, want 2", resp.Retries)
	}
	if !resp.Validated || resp.Elements == 0 {
		t.Errorf("degraded response not validated: %+v", resp)
	}
	snap := s.MetricsDocument()
	if snap.Counters["execute_retries"] != 2 || snap.Counters["execute_degraded"] != 1 {
		t.Errorf("counters = %v, want execute_retries=2 execute_degraded=1", snap.Counters)
	}
	if snap.Counters["chaos_block_retries"] == 0 {
		t.Error("no block retries counted under persistent chaos")
	}
}

// The same seed must produce the same response (state validation,
// injection stats, retry counts) on repeat — the replayability
// contract at the service boundary.
func TestExecuteChaosDeterministic(t *testing.T) {
	s := newTestService(t, Config{})
	req := execReq(CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4})
	req.ChaosSeed = 99
	a, err := s.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if *a.Chaos != *b.Chaos || a.Retries != b.Retries || a.Degraded != b.Degraded {
		t.Errorf("replay diverged: %+v vs %+v", a, b)
	}
}

// Without a seed anywhere, execution must stay exactly the fault-free
// path: no chaos fields in the response, no chaos counters.
func TestExecuteNoChaosByDefault(t *testing.T) {
	s := newTestService(t, Config{})
	resp, err := s.Execute(context.Background(), execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Chaos != nil || resp.ChaosSeed != 0 || resp.Degraded {
		t.Errorf("chaos fields set without a seed: %+v", resp)
	}
	if s.MetricsDocument().Gauges["chaos_enabled"] != 0 {
		t.Error("chaos_enabled gauge set without a seed")
	}
}

// saturatePool occupies every worker and queue slot; the returned
// release function unblocks them. Saturation is deterministic: it
// waits until the workers have started and the queue is full.
func saturatePool(t *testing.T, s *Service, workers, queueDepth int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	started := make(chan struct{}, workers)
	block := func(ctx context.Context) (any, error) {
		started <- struct{}{}
		<-ch
		return nil, nil
	}
	for i := 0; i < workers; i++ {
		go s.pool.trySubmit(context.Background(), false, block)
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	for i := 0; i < queueDepth; i++ {
		go s.pool.trySubmit(context.Background(), false, func(ctx context.Context) (any, error) { <-ch; return nil, nil })
	}
	for s.pool.queueDepth() < queueDepth {
		runtime.Gosched()
	}
	return func() { close(ch) }
}

// A saturated pool must shed load immediately with ErrOverloaded (429
// at the HTTP layer) instead of queueing the request until deadline.
func TestAdmissionControlRejectsWhenSaturated(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	release := saturatePool(t, s, 1, 1)
	defer release()

	_, err := s.Execute(context.Background(), execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := s.MetricsDocument().Counters["overload_rejections"]; got != 1 {
		t.Errorf("overload_rejections = %d, want 1", got)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: srcL1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}
