package exec

// The service executes one cached plan from a pool of workers: many
// goroutines call Run on a single shared *Kernel (and validate against
// one shared *Program's Sequential). This test documents — and, under
// -race, proves — that a Kernel is read-only after Specialize apart
// from its internally synchronized arena pool: 16 goroutines race Run
// (and the dense Sequential) and must all produce the sequential
// reference state.

import (
	"sync"
	"testing"

	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

func TestKernelConcurrentRunsOnSharedKernel(t *testing.T) {
	cases := []struct {
		name  string
		nest  *loop.Nest
		strat partition.Strategy
	}{
		{"L1", loop.L1(), partition.Duplicate},
		{"L4", loop.L4(), partition.NonDuplicate}, // shared-buffer path
		{"L5", loop.L5(6), partition.Duplicate},   // private-buffer path
	}
	cost := machine.Transputer()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := partition.Compute(tc.nest, tc.strat)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := CompileNest(res.Analysis.Nest, res.Redundant)
			if err != nil {
				t.Fatal(err)
			}
			kern, err := prog.Specialize(res, 4)
			if err != nil {
				t.Fatal(err)
			}
			want := Sequential(tc.nest, nil)
			const goroutines = 16
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if g%4 == 3 {
						// Every fourth goroutine races the dense
						// sequential path against the kernel runs.
						if err := Equal(want, prog.Sequential()); err != nil {
							t.Errorf("goroutine %d: sequential: %v", g, err)
						}
						return
					}
					// Two runs each, so recycled arenas cross goroutines.
					for round := 0; round < 2; round++ {
						rep, err := kern.Run(cost, Options{})
						if err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if err := Equal(want, rep.Final); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
						}
						if msgs := rep.Machine.InterNodeMessages(); msgs != 0 {
							t.Errorf("goroutine %d: %d inter-node messages", g, msgs)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
