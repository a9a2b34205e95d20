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

// TestDisjointPlansCheckpointOnlyTheirOwnCells: under a non-duplicate
// plan the workers share one buffer, and chaos recovery restores a
// block's write ranges from a checkpoint while other blocks run. That is
// only safe if no two blocks' ranges name the same cell — in particular a
// range must leave out iterations elided as redundant, whose cell
// belongs to the block holding the surviving computation. L2 under the
// minimal strategy is the witness: (4,1)·S1 and (4,2)·S2 both name
// A[5,5], in different blocks, and only S2's write survives.
func TestDisjointPlansCheckpointOnlyTheirOwnCells(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nest  *loop.Nest
		strat partition.Strategy
	}{
		{"L2/minimal", loop.L2(), partition.MinimalNonDuplicate},
		{"L2", loop.L2(), partition.NonDuplicate},
		{"L3/minimal", loop.L3(), partition.MinimalNonDuplicate},
		{"L4", loop.L4(), partition.NonDuplicate},
	} {
		res, err := partition.Compute(tc.nest, tc.strat)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prog, err := CompileNest(res.Analysis.Nest, res.Redundant)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		kern, err := prog.Specialize(res, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		type cell struct {
			arr int32
			off int64
		}
		holder := map[cell]int{}
		for bi, wr := range kern.plan.BlockWR {
			for i := wr[0]; i < wr[1]; i++ {
				r := kern.plan.WR[i]
				for n, off := int32(0), r.Off; n < r.N; n, off = n+1, off+r.Step {
					c := cell{r.Arr, off}
					if prev, ok := holder[c]; ok && prev != bi {
						t.Fatalf("%s: blocks %d and %d both checkpoint cell %d of array %d", tc.name, prev, bi, off, r.Arr)
					}
					holder[c] = bi
				}
			}
		}
		if len(holder) == 0 {
			t.Fatalf("%s: no write footprint at all", tc.name)
		}
	}
}
