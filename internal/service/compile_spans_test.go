package service

import (
	"context"
	"testing"
	"time"

	"commfree/internal/lang"
	"commfree/internal/loop"
)

// TestColdCompileSpansNameEveryStage: a cold compile's trace has one
// top-level canonical span (the canonical re-render and re-parse) and one
// plan span (the wire views and the store record), beside the stages it
// always had.
func TestColdCompileSpansNameEveryStage(t *testing.T) {
	s := newTestService(t, Config{})
	resp, err := s.Compile(context.Background(), CompileRequest{Source: lang.Format(loop.L5(4)), Strategy: "duplicate", Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	top := map[string]int{}
	for _, sp := range s.Traces().Get(resp.TraceID).Spans() {
		if sp.Parent == 0 {
			top[sp.Name]++
		}
	}
	for _, stage := range []string{"parse", "canonical", "selection", "verify", "codegen", "plan"} {
		if top[stage] != 1 {
			t.Errorf("%d top-level %q spans, want 1 (top level: %v)", top[stage], stage, top)
		}
	}
	if admissionStages["canonical"] || admissionStages["plan"] {
		t.Error("canonical and plan must not feed admission's service-time estimate")
	}
}

// TestColdCompileSpansCoverItsWall: the top-level spans of a cold
// compile of matmul 16³ account for at least 90 % of Service.Compile's
// wall time, best of five fresh services. The race detector's overhead
// is not where the spans are, so the bound holds only without it.
func TestColdCompileSpansCoverItsWall(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector distorts where the time goes")
	}
	src := lang.Format(loop.L5(16))
	best := 0.0
	for i := 0; i < 5; i++ {
		s := New(Config{})
		start := time.Now()
		resp, err := s.Compile(context.Background(), CompileRequest{Source: src, Strategy: "duplicate", Processors: 16})
		wall := time.Since(start)
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		var spanned int64
		for _, sp := range s.Traces().Get(resp.TraceID).Spans() {
			if sp.Parent == 0 {
				spanned += sp.DurNS
			}
		}
		s.Close()
		share := float64(spanned) / float64(wall.Nanoseconds())
		t.Logf("compile %d: %v wall, %.1f%% in top-level spans", i, wall, 100*share)
		best = max(best, share)
	}
	if best < 0.90 {
		t.Errorf("top-level spans cover %.1f%% of a cold compile at best, want ≥ 90%%", 100*best)
	}
}
