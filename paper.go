package commfree

import (
	"commfree/internal/distplan"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// The paper's worked examples, exposed for experiments and benchmarks.

// LoopL1 returns Example 1 (three arrays, flow dependence along (1,1)).
func LoopL1() *Nest { return loop.L1() }

// LoopL2 returns Example 2 (fully duplicable arrays; duplicate strategy
// unlocks all 16 iterations).
func LoopL2() *Nest { return loop.L2() }

// LoopL3 returns Example 3 (redundant computations; Theorems 3–4).
func LoopL3() *Nest { return loop.L3() }

// LoopL4 returns Example 4 (the Section IV transformation example).
func LoopL4() *Nest { return loop.L4() }

// LoopL5 returns the matrix-multiplication loop with problem size M.
func LoopL5(m int64) *Nest { return loop.L5(m) }

// TableRow is one (M, p) measurement of the Table I/II reproduction.
type TableRow = machine.TableRow

// TableI simulates Table I: execution times of L5 (sequential), L5′, and
// L5″ for the given problem sizes and processor counts.
func TableI(ms []int64, ps []int, cost CostModel) ([]TableRow, error) {
	return machine.TableI(ms, ps, cost)
}

// RunL5Prime compiles L5 with only B duplicated — Section IV's L5′ — and
// executes it under the distribution plan derived from that partition
// (A's rows by unicast, B by broadcast): real data, strictly local
// memories. The report's Final state and machine accounting and the
// plan's steps are what Table I's closed forms are checked against.
func RunL5Prime(m int64, p int, cost CostModel) (*ExecutionReport, *DistributionPlan, error) {
	res, err := partition.ComputeSelective(loop.L5(m), map[string]bool{"B": true})
	if err != nil {
		return nil, nil, err
	}
	return distplan.ParallelPlanned(res, p, cost)
}

// RunL5DoublePrime is RunL5Prime under the duplicate strategy — L5″: the
// derived plan multicasts A's row groups and B's column groups.
func RunL5DoublePrime(m int64, p int, cost CostModel) (*ExecutionReport, *DistributionPlan, error) {
	res, err := partition.Compute(loop.L5(m), partition.Duplicate)
	if err != nil {
		return nil, nil, err
	}
	return distplan.ParallelPlanned(res, p, cost)
}

// SequentialMatMul is the sequential L5 reference result.
func SequentialMatMul(m int64) map[string]float64 { return SequentialReference(loop.L5(m)) }
