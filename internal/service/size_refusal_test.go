package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"commfree/internal/machine"
)

// hugeNest is 10¹⁰ iterations in under 70 bytes: it passes every bound on
// the request itself, and enumerating it would take the process down.
const hugeNest = "for i = 1 to 100000\n for j = 1 to 100000\n  A[i, j] = 1\n end\nend"

// TestOversizedNestIsRefusedBeforeEnumeration drives the size refusal
// over HTTP: 422 on both endpoints, at once, with the one worker free
// for the next request — and no limit when MaxIterations is negative.
func TestOversizedNestIsRefusedBeforeEnumeration(t *testing.T) {
	// A budget the dependent-bounds walk reaches well inside the time
	// bound below, race detector included.
	s := New(Config{Workers: 1, MaxIterations: 1 << 16})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, src := range []string{
		hugeNest,
		// Dependent bounds are walked to the limit, not multiplied out.
		"for i = 1 to 100000\n for j = i to 100000\n  A[i, j] = 1\n end\nend",
		// Extents whose product — or whose difference — overflows int64.
		"for i = 1 to 4294967296\n for j = 1 to 4294967296\n  for k = 1 to 4294967296\n   A[i, j, k] = 1\n  end\n end\nend",
		"for i = -9000000000000000000 to 9000000000000000000\n A[i] = 1\nend",
		// No iteration at all, but a walk steps through 10¹¹ values of i
		// to find that out.
		"for i = 1 to 100000000000\n for j = 1 to 0\n  A[i, j] = 1\n end\nend",
	} {
		for _, path := range []string{"/v1/compile", "/v1/execute"} {
			start := time.Now()
			resp, body := postJSON(t, ts.URL+path, CompileRequest{Source: src, Strategy: "duplicate"})
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s of\n%s\nstatus = %d, want 422 (body %s)", path, src, resp.StatusCode, body)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("%s of\n%s\nrefused after %v, want < 100ms", path, src, d)
			}
		}
	}
	_, err := s.Compile(context.Background(), CompileRequest{Source: hugeNest})
	if !errors.Is(err, machine.ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
	if n := s.pool.running(); n != 0 {
		t.Errorf("%d workers still busy after the refusals", n)
	}
	// The one worker is free, and an empty outer level hides whatever
	// is inside it.
	for _, src := range []string{srcL1, "for i = 1 to 0\n for j = 1 to 100000000000\n  A[i, j] = 1\n end\nend"} {
		resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("compile after the refusals of\n%s\nstatus %d (body %s)", src, resp.StatusCode, body)
		}
	}
	if got := s.Metrics().Counter("compiles"); got != 2 {
		t.Errorf("compiles = %d, want 2: a refused nest is not a pipeline run", got)
	}

	// The limit is exact, and a negative one is no limit.
	const m = 64
	tight := New(Config{MaxIterations: m*m*m - 1})
	defer tight.Close()
	unlimited := New(Config{MaxIterations: -1})
	defer unlimited.Close()
	src := fmt.Sprintf("for i = 1 to %d\n for j = 1 to %d\n  for k = 1 to %d\n   C[i, j] = C[i, j] + A[i, k] * B[k, j]\n  end\n end\nend", m, m, m)
	if _, err := tight.Compile(context.Background(), CompileRequest{Source: src, Strategy: "duplicate"}); !errors.Is(err, machine.ErrBudgetExhausted) {
		t.Errorf("budget %d, %d³ nest: err = %v, want ErrBudgetExhausted", m*m*m-1, m, err)
	}
	if _, err := unlimited.Compile(context.Background(), CompileRequest{Source: src, Strategy: "duplicate"}); err != nil {
		t.Errorf("unlimited budget, %d³ nest: %v", m, err)
	}
}

// TestAdmissionCountsWalkSteps: a nest with dependent bounds whose inner
// level is empty under every outer value has no iteration, yet a walk
// steps through every outer value to find that out. Admission counts the
// steps, so 10⁸ of them answer 422 at once over HTTP, with the worker
// free and no pipeline run. The count is exact: a triangular nest of
// n + n(n+1)/2 steps compiles under exactly that budget, not one less.
func TestAdmissionCountsWalkSteps(t *testing.T) {
	s := New(Config{Workers: 1, MaxIterations: 1 << 16})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := "for i = 1 to 100000000\n for j = i to 0\n  A[i, j] = 1\n end\nend"
	for _, path := range []string{"/v1/compile", "/v1/execute"} {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+path, CompileRequest{Source: src, Strategy: "duplicate"})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422 (body %s)", path, resp.StatusCode, body)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want < 100ms", path, d)
		}
	}
	if n := s.pool.running(); n != 0 {
		t.Errorf("%d workers still busy after the refusals", n)
	}
	if got := s.Metrics().Counter("compiles"); got != 0 {
		t.Errorf("compiles = %d, want 0: a refused nest is not a pipeline run", got)
	}

	const n = 360
	steps := int64(n + n*(n+1)/2)
	tri := fmt.Sprintf("for i = 1 to %d\n for j = i to %d\n  A[i, j] = A[i, j - 1] + 1\n end\nend", n, n)
	for _, c := range []struct {
		limit int64
		admit bool
	}{{steps, true}, {steps - 1, false}} {
		svc := New(Config{MaxIterations: c.limit})
		_, err := svc.Compile(context.Background(), CompileRequest{Source: tri, Strategy: "duplicate"})
		svc.Close()
		if c.admit && err != nil {
			t.Errorf("budget %d, triangular nest of %d steps: %v", c.limit, steps, err)
		}
		if !c.admit && !errors.Is(err, machine.ErrBudgetExhausted) {
			t.Errorf("budget %d, triangular nest of %d steps: err = %v, want ErrBudgetExhausted", c.limit, steps, err)
		}
	}
}

// TestOversizedRecordIsNotRevived: a stored or imported record names its
// nest too, so revival applies the same budget before it indexes — and
// the compile it falls back to refuses the nest as well.
func TestOversizedRecordIsNotRevived(t *testing.T) {
	req := CompileRequest{Source: srcL1, Processors: 4} // 16 iterations
	origin := newTestService(t, Config{})
	if _, err := origin.Compile(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	rec := origin.ExportRecords()[0]
	s := newTestService(t, Config{MaxIterations: 15})
	if err := s.ImportRecord(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.rehydrate(rec, nil); !errors.Is(err, machine.ErrBudgetExhausted) {
		t.Errorf("rehydrate: err = %v, want ErrBudgetExhausted", err)
	}
	_, err := s.Compile(context.Background(), req)
	if m := s.Metrics(); !errors.Is(err, machine.ErrBudgetExhausted) || m.Counter("store_rehydrate_errors") != 1 || m.Counter("compiles") != 0 {
		t.Errorf("err = %v, counters = %v; want ErrBudgetExhausted from one failed revival and no compile", err, m.Snapshot().Counters)
	}
}
