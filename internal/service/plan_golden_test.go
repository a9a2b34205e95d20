package service

// The compile pipeline's wire contract: every Plan the service returns
// — partition info, transform, assignment, predicted cost, the full
// ranking with its simulated times, the SPMD program — is pinned byte
// for byte. testdata/plans.golden was generated at the commit before
// the pipeline was restructured around one evaluation context per nest
// (UPDATE_GOLDEN=1 go test ./internal/service -run PlanGolden), so a
// pass proves the restructuring moved no response.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
)

func TestPlanGoldenByteIdentical(t *testing.T) {
	nests := []struct {
		name string
		nest *loop.Nest
	}{
		{"L1", loop.L1()}, {"L2", loop.L2()}, {"L3", loop.L3()}, {"L4", loop.L4()}, {"L5", loop.L5(4)},
	}
	strategies := []string{"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars", "auto"}
	var b strings.Builder
	for _, n := range nests {
		src := lang.Format(n.nest)
		for _, strat := range strategies {
			for _, p := range []int{4, 16} {
				s := newTestService(t, Config{})
				resp, err := s.Compile(context.Background(), CompileRequest{Source: src, Strategy: strat, Processors: p})
				if err != nil {
					t.Fatalf("%s %s p=%d: %v", n.name, strat, p, err)
				}
				plan, err := json.Marshal(resp.Plan)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %s p=%d %s\n", n.name, strat, p, plan)
			}
		}
	}
	goldenCompare(t, "plans.golden", []byte(b.String()))
}
