package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/obs"
)

// srcL1 and its α-renamed/re-spaced spellings must share one cache
// entry.
const srcL1 = `for i = 1 to 4
  for j = 1 to 4
    S1: A[2i, j]  = C[i, j] * 7
    S2: B[j, i+1] = A[2i-2, j-1] + C[i-1, j-1]
  end
end
`

// srcOverCap has four iterations, but A's bounding box is 4098 × 4098
// elements, past the kernel's dense cap: it executes on the map oracle
// through the exec_compile fallback.
const srcOverCap = `for i = 1 to 2
  for j = 1 to 2
    A[i + 4096j, 4096i + j] = A[i + 4096j - 1, 4096i + j] + 1
  end
end
`

const srcL1Renamed = `# same program, renamed indices and different spacing
for x = 1 to 4
 for y = 1 to 4
  S1: A[2x,y] = C[x,y]*7
  S2: B[y, x+1] = A[2x-2, y-1] + C[x-1, y-1]
 end
end
`

// paperSources returns L1–L5 as DSL source (L5 at M=4 to keep the
// simulated executions small).
func paperSources() map[string]string {
	return map[string]string{
		"L1": lang.Format(loop.L1()),
		"L2": lang.Format(loop.L2()),
		"L3": lang.Format(loop.L3()),
		"L4": lang.Format(loop.L4()),
		"L5": lang.Format(loop.L5(4)),
	}
}

// execReq wraps a compile request for /v1/execute (no execution-only
// knobs set).
func execReq(req CompileRequest) ExecuteRequest {
	return ExecuteRequest{CompileRequest: req}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestCompileEntryColdWithNilTrace: a cold compile through the pool
// without a trace returns the plan, not a contained worker panic.
func TestCompileEntryColdWithNilTrace(t *testing.T) {
	s := newTestService(t, Config{})
	e, cached, err := s.compileEntry(context.Background(), CompileRequest{Source: srcL1, Processors: 4}, nil)
	if err != nil {
		t.Fatalf("cold compile with a nil trace: %v", err)
	}
	if cached || e.plan == nil || e.plan.Processors != 4 {
		t.Errorf("cached=%v plan=%+v", cached, e.plan)
	}
	if n := s.Metrics().Counter("compiles"); n != 1 {
		t.Errorf("compiles = %d, want 1", n)
	}
}

func TestCompileL1(t *testing.T) {
	s := newTestService(t, Config{})
	resp, err := s.Compile(context.Background(), CompileRequest{Source: srcL1, Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("first compile reported cached")
	}
	p := resp.Plan
	if p.Strategy != "non-duplicate" {
		t.Errorf("strategy = %q", p.Strategy)
	}
	if p.Partition.NumBlocks == 0 || p.Partition.ParallelismDim == 0 {
		t.Errorf("degenerate partition info: %+v", p.Partition)
	}
	if len(p.Partition.PsiBasis) != p.Partition.PsiDim {
		t.Errorf("psi basis rows %d != dim %d", len(p.Partition.PsiBasis), p.Partition.PsiDim)
	}
	if !strings.Contains(p.Transform.Program, "forall") {
		t.Errorf("transformed program missing forall:\n%s", p.Transform.Program)
	}
	if len(p.Assignment.Blocks) != p.Transform.NumBlocks {
		t.Errorf("assignment lists %d blocks, transform %d", len(p.Assignment.Blocks), p.Transform.NumBlocks)
	}
	if p.Predicted == nil || p.Predicted.Total <= 0 {
		t.Errorf("missing predicted cost: %+v", p.Predicted)
	}
	if len(p.Ranking) < 4 {
		t.Errorf("ranking has %d candidates", len(p.Ranking))
	}
	if !strings.Contains(p.SPMDGo, "package main") {
		t.Error("SPMD program missing")
	}
}

func TestCacheHitOnAlphaEquivalentSource(t *testing.T) {
	s := newTestService(t, Config{})
	r1, err := s.Compile(context.Background(), CompileRequest{Source: srcL1, Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Compile(context.Background(), CompileRequest{Source: srcL1Renamed, Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("α-renamed source missed the cache")
	}
	if r1.Plan != r2.Plan {
		t.Error("cache returned a different plan object")
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v", st)
	}
	// A different strategy or machine size is a different plan.
	r3, err := s.Compile(context.Background(), CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("different strategy hit the same cache entry")
	}
}

func TestCompileAllPaperLoopsAllStrategies(t *testing.T) {
	s := newTestService(t, Config{})
	for name, src := range paperSources() {
		for _, strat := range []string{"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "auto"} {
			resp, err := s.Compile(context.Background(), CompileRequest{Source: src, Strategy: strat, Processors: 16})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, strat, err)
			}
			if resp.Plan.Partition.NumBlocks == 0 {
				t.Errorf("%s/%s: no blocks", name, strat)
			}
		}
	}
}

func TestCompileBadInput(t *testing.T) {
	s := newTestService(t, Config{})
	cases := []CompileRequest{
		{Source: ""},
		{Source: "for i = 1 to\n"},
		{Source: srcL1, Strategy: "nonsense"},
		{Source: srcL1, Processors: -1},
		{Source: srcL1, Processors: 1 << 20},
	}
	for i, req := range cases {
		_, err := s.Compile(context.Background(), req)
		var bad *BadRequestError
		if !errors.As(err, &bad) {
			t.Errorf("case %d: err = %v, want BadRequestError", i, err)
		}
	}
}

func TestExecuteValidatesAgainstSequential(t *testing.T) {
	s := newTestService(t, Config{})
	for name, src := range paperSources() {
		resp, err := s.Execute(context.Background(), execReq(CompileRequest{Source: src, Strategy: "duplicate", Processors: 4}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !resp.Validated || resp.Mismatches != 0 {
			t.Errorf("%s: validation failed, %d/%d mismatches", name, resp.Mismatches, resp.Elements)
		}
		if resp.InterNodeMessages != 0 {
			t.Errorf("%s: %d inter-node messages in a communication-free plan", name, resp.InterNodeMessages)
		}
		if resp.SimElapsedS <= 0 {
			t.Errorf("%s: no simulated time", name)
		}
	}
}

func TestExecuteReportsEngine(t *testing.T) {
	// A plan runs on the specialized kernel; one whose footprint is past
	// the kernel's dense cap falls back to the map oracle, which must be
	// reported, counted and validate identically.
	for _, c := range []struct {
		engine, src string
		fallbacks   int64
	}{{"kernel", srcL1, 0}, {"oracle", srcOverCap, 1}} {
		s := newTestService(t, Config{})
		resp, err := s.Execute(context.Background(), execReq(CompileRequest{Source: c.src, Strategy: "duplicate", Processors: 4}))
		if err != nil {
			t.Fatalf("%s: %v", c.engine, err)
		}
		if resp.Engine != c.engine {
			t.Errorf("engine = %q, want %q", resp.Engine, c.engine)
		}
		if !resp.Validated || resp.InterNodeMessages != 0 {
			t.Errorf("%s: validated=%v inter-node=%d", c.engine, resp.Validated, resp.InterNodeMessages)
		}
		if got := s.Metrics().Counter("exec_compile_fallbacks"); got != c.fallbacks {
			t.Errorf("%s: exec_compile_fallbacks = %d, want %d", c.engine, got, c.fallbacks)
		}
	}
}

func TestExecuteBudgetExhausted(t *testing.T) {
	s := newTestService(t, Config{MaxIterations: 3})
	_, err := s.Execute(context.Background(), execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if !errors.Is(err, machine.ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
	// An unlimited budget executes the same request fine.
	s2 := newTestService(t, Config{MaxIterations: -1})
	if _, err := s2.Execute(context.Background(), execReq(CompileRequest{Source: srcL1, Processors: 4})); err != nil {
		t.Errorf("unlimited budget: %v", err)
	}
}

func TestRequestTimeout(t *testing.T) {
	s := newTestService(t, Config{RequestTimeout: time.Nanosecond})
	_, err := s.Compile(context.Background(), CompileRequest{Source: srcL1})
	if err == nil {
		t.Fatal("want timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestCompileAfterCloseIsRejected(t *testing.T) {
	s := New(Config{})
	s.Close()
	_, err := s.Compile(context.Background(), CompileRequest{Source: srcL1})
	if !errors.Is(err, ErrDraining) {
		t.Errorf("err = %v, want ErrDraining", err)
	}
}

func TestStageMetricsRecorded(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.Compile(context.Background(), CompileRequest{Source: srcL1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(context.Background(), execReq(CompileRequest{Source: srcL1})); err != nil {
		t.Fatal(err)
	}
	snap := s.MetricsDocument()
	for _, stage := range []string{"parse", "partition", "selection", "codegen", "execution", "exec_compile", "exec_run", "exec_validate"} {
		h, ok := snap.Stages[stage]
		if !ok || h.Count == 0 {
			t.Errorf("stage %q not recorded (%+v)", stage, h)
		}
	}
	if snap.Counters["compile_requests"] != 1 || snap.Counters["execute_requests"] != 1 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Cache.Misses != 1 || snap.Cache.Hits != 1 {
		t.Errorf("cache = %+v", snap.Cache)
	}
	if _, ok := snap.Gauges["queue_depth"]; !ok {
		t.Errorf("gauges = %v", snap.Gauges)
	}
}

// TestGracefulDrainDeliversAllResponses starts many concurrent
// compilations of distinct programs, begins draining while they are in
// flight, and checks that every accepted request still received its
// real response — the acceptance criterion for graceful shutdown.
func TestGracefulDrainDeliversAllResponses(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	const n = 32
	type result struct {
		resp *CompileResponse
		err  error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		// Distinct upper bounds defeat the cache so every request does
		// real work during the drain.
		src := strings.Replace(srcL1, "for i = 1 to 4", fmt.Sprintf("for i = 1 to %d", 4+i), 1)
		go func(src string) {
			resp, err := s.Compile(context.Background(), CompileRequest{Source: src, Processors: 4})
			results <- result{resp, err}
		}(src)
	}
	// Wait until at least one compilation is executing on a worker: that
	// task has been accepted, so the drain must deliver its response.
	for s.pool.running() == 0 {
		runtime.Gosched()
	}
	s.Close()

	succeeded, rejected := 0, 0
	for i := 0; i < n; i++ {
		r := <-results
		switch {
		case r.err == nil:
			if r.resp.Plan == nil {
				t.Error("nil plan in successful response")
			}
			succeeded++
		case errors.Is(r.err, ErrDraining):
			rejected++ // arrived after drain began: correctly refused
		default:
			t.Errorf("request dropped with unexpected error: %v", r.err)
		}
	}
	if succeeded == 0 {
		t.Error("no request completed during drain")
	}
	t.Logf("drain: %d completed, %d refused", succeeded, rejected)
}

// TestCountMismatches: validation is two-sided — a parallel run that
// loses, corrupts or invents elements must not validate — and agrees
// with exec.Equal on the verdict.
func TestCountMismatches(t *testing.T) {
	want := map[string]float64{"A[1]": 1, "A[2]": 2}
	cases := []struct {
		name string
		got  map[string]float64
		n    int
	}{
		{"equal", map[string]float64{"A[1]": 1, "A[2]": 2}, 0},
		{"differing value", map[string]float64{"A[1]": 1, "A[2]": 7}, 1},
		{"missing key", map[string]float64{"A[1]": 1}, 1},
		{"surplus key", map[string]float64{"A[1]": 1, "A[2]": 2, "A[3]": 3}, 1},
		{"missing and surplus", map[string]float64{"A[1]": 1, "A[3]": 3}, 2},
	}
	for _, c := range cases {
		if got := exec.Mismatches(c.got, want); got != c.n {
			t.Errorf("%s: %d mismatches, want %d", c.name, got, c.n)
		}
		if equal := exec.Equal(c.got, want) == nil; equal != (c.n == 0) {
			t.Errorf("%s: exec.Equal says equal=%v", c.name, equal)
		}
	}
}

// TestKernelFallbackRecordsReason: when a plan cannot be specialized
// the request runs on the map oracle, still validates, and the
// exec_compile span says which fallback fired and why.
func TestKernelFallbackRecordsReason(t *testing.T) {
	s := newTestService(t, Config{})
	ctx := context.Background()
	req := CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}
	entry, _, err := s.compileEntry(ctx, req, obs.New("t"))
	if err != nil {
		t.Fatal(err)
	}
	// Stand in for a nest beyond the compile caps: resolve the entry's
	// lazy kernel to the error CompileNest would return.
	capErr := errors.New("exec: array A footprint [4096 4096] exceeds 16777216 dense cells")
	entry.comp.kernel.build = func(*Service, *obs.Trace) (*exec.Kernel, error) { return nil, capErr }

	resp, err := s.Execute(ctx, execReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resp.Engine != "oracle" || !resp.Validated {
		t.Fatalf("cached=%v engine=%q validated=%v, want the cached plan on the oracle, validated", resp.Cached, resp.Engine, resp.Validated)
	}
	if got := s.Metrics().Counter("exec_compile_fallbacks"); got != 1 {
		t.Errorf("exec_compile_fallbacks = %d, want 1", got)
	}
	trc := s.Traces().Get(resp.TraceID)
	if trc == nil {
		t.Fatal("trace not in ring")
	}
	attrs := map[string]string{}
	for _, sp := range trc.Spans() {
		if sp.Name == "exec_compile" {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Str
			}
		}
	}
	if attrs["fallback"] != "oracle" || attrs["reason"] != capErr.Error() {
		t.Errorf("exec_compile attrs = %v, want fallback=oracle reason=%q", attrs, capErr)
	}
}
