package conformance

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/selector"
)

// TestWorkloadsAreWhatRuns: the workloads a plan reports — the compiled
// candidate's Assignment.Workloads — are the iterations each node runs,
// on the oracle and on the kernel, for L1–L5, the language corpus and
// the analysis sweep's generated nests, under every strategy a request
// names and p ∈ {4, 16}.
func TestWorkloadsAreWhatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep skipped in -short")
	}
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(37))
	for range 300 {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	for i, nest := range nests {
		for _, strat := range []string{"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars", "auto"} {
			pin, err := selector.PinFor(strat)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{4, 16} {
				ev, err := selector.Compile(context.Background(), nest, p, cost, pin, loop.DefaultMaxIterations, nil)
				if err != nil {
					t.Fatalf("nest %d %s p=%d: %v\n%s", i, strat, p, err, lang.Format(nest))
				}
				reported := ev.Assignment.Workloads()
				oracle, err := exec.Parallel(ev.Result, p, cost)
				if err != nil {
					t.Fatalf("nest %d %s p=%d: oracle: %v", i, strat, p, err)
				}
				runs := [][]int64{oracle.IterationsPerNode}
				if prog, err := exec.CompilePartition(ev.Result); err == nil {
					kern, err := prog.Specialize(ev.Result, p)
					if err != nil {
						t.Fatalf("nest %d %s p=%d: kernel: %v", i, strat, p, err)
					}
					rep, err := kern.Run(cost, exec.Options{})
					if err != nil {
						t.Fatalf("nest %d %s p=%d: kernel: %v", i, strat, p, err)
					}
					runs = append(runs, rep.IterationsPerNode)
				}
				for e, run := range runs {
					if !slices.Equal(reported, run) {
						t.Errorf("nest %d %s p=%d: the plan reports workloads %v, the %s runs %v\n%s",
							i, strat, p, reported, []string{"oracle", "kernel"}[e], run, lang.Format(nest))
					}
				}
			}
		}
	}
}
