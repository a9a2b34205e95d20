// Package conformance is the property-based theorem conformance suite:
// it checks, for arbitrary valid loop nests, every machine-checkable
// guarantee the paper makes. Each property is a theorem (or an
// immediate corollary) of Chen & Sheu:
//
//   - Theorems 1–4: every strategy's partition is communication-free
//     (non-duplicate strategies share no element across blocks at all;
//     duplicate strategies share no flow dependence) — checked
//     exhaustively by partition.Result.Verify;
//   - the duplicate partition space contains no directions the
//     non-duplicate one lacks: Ψ_dup ⊆ Ψ_nondup (duplication only
//     removes constraints), and likewise elimination only removes
//     constraints: Ψ_minimal ⊆ Ψ (the paper's Ψ^r ⊆ Ψ);
//   - consequently dim Ψ_minimal ≤ dim Ψ — eliminating redundant
//     computations never costs parallelism;
//   - the loop transformation T is unimodular, and the transformed loop
//     visits every iteration ī once, in its block, with T⁻¹·T·ī = ī;
//   - the dense sequential reference and the map-based oracle agree on
//     the final sequential state, with and without elimination;
//   - parallel execution under the partition reproduces the sequential
//     state exactly with zero inter-node messages, and the kernel
//     engine is indistinguishable from the map oracle in final state
//     and machine accounting.
//
// The test harness generates nests with loopgen, checks them here, and
// shrinks any failure to a minimal DSL repro (loopgen.Shrink +
// lang.Format).
package conformance

import (
	"cmp"
	"fmt"
	"slices"

	"commfree/internal/exec"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
	"commfree/internal/transform"
)

// strategies are the strategies checked on every nest: the four
// theorem strategies plus the usage-based MARS extension.
var strategies = []partition.Strategy{
	partition.NonDuplicate,
	partition.Duplicate,
	partition.MinimalNonDuplicate,
	partition.MinimalDuplicate,
	partition.Mars,
}

// maxExecIterations bounds the nests on which the (comparatively
// expensive) execution-equality properties run; the algebraic
// properties run regardless.
const maxExecIterations = 1 << 12

// procs and cost are the machine every execution property runs on.
const procs = 4

var cost = machine.Transputer()

// analyze builds the one evaluation context of a validated nest —
// dependence analysis, dense index and redundancy oracle — that every
// strategy's partition in a check is computed from
// (pc.Compute(strat, dup, 0)).
func analyze(nest *loop.Nest) (*partition.Context, error) {
	pc, err := partition.NewContext(nest, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("conformance: analysis failed: %w", err)
	}
	return pc, nil
}

// engines are the two executors the execution properties compare: the
// map oracle and the kernel (whose report may be nil, see runKernel).
var engines = []struct {
	name string
	run  func(res *partition.Result, opts exec.Options) (*exec.Report, error)
}{
	{"oracle", func(res *partition.Result, opts exec.Options) (*exec.Report, error) {
		return exec.ParallelOpts(res, procs, cost, opts)
	}},
	{"kernel", runKernel},
}

// runKernel builds the kernel of a partition and runs it. A nest beyond
// the dense caps has no kernel — (nil, nil): the oracle run stands alone
// — while a partition that compiles but fails to specialize or to run is
// an error.
func runKernel(res *partition.Result, opts exec.Options) (*exec.Report, error) {
	prog, err := exec.CompilePartition(res)
	if err != nil {
		return nil, nil
	}
	kern, err := prog.Specialize(res, procs)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: kernel specialization failed: %w", res.Strategy, err)
	}
	rep, err := kern.Run(cost, opts)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: kernel parallel execution failed: %w", res.Strategy, err)
	}
	return rep, nil
}

// CheckNest runs the full conformance suite on one nest, running the
// parallel-execution property under the Duplicate strategy. A nil
// return means every property held.
func CheckNest(nest *loop.Nest) error {
	return Check(nest, partition.Duplicate)
}

// Check is CheckNest with the parallel-execution property run under
// execStrat (callers rotate it so all four schedulers see coverage).
func Check(nest *loop.Nest, execStrat partition.Strategy) error {
	if err := nest.Validate(); err != nil {
		return fmt.Errorf("conformance: input nest invalid: %w", err)
	}
	pc, err := analyze(nest)
	if err != nil {
		return err
	}
	results := make(map[partition.Strategy]*partition.Result, len(strategies))
	for _, strat := range strategies {
		res, err := pc.Compute(strat, nil, 0)
		if err != nil {
			return fmt.Errorf("conformance: %s: partition failed: %w", strat, err)
		}
		// Theorems 1–4 (and the MARS flow-closure property): exhaustive
		// communication-freeness.
		if err := res.Verify(); err != nil {
			return fmt.Errorf("conformance: %s: communication-freeness violated: %w", strat, err)
		}
		if err := checkBijectivity(nest, res); err != nil {
			return fmt.Errorf("conformance: %s: %w", strat, err)
		}
		results[strat] = res
	}

	if err := checkInclusions(results); err != nil {
		return err
	}
	if err := checkMars(pc, results); err != nil {
		return err
	}
	if nest.NumIterations() > maxExecIterations {
		return nil
	}
	if err := checkSequentialAgreement(nest, results); err != nil {
		return err
	}
	return checkParallelExecution(nest, results[execStrat])
}

// checkBijectivity verifies that T is unimodular, that Visit reaches
// every iteration ī exactly once, inside its block Q·ī, with
// Original(NewPoint(ī)) = ī, and that the partition's forall view is
// Visit's.
func checkBijectivity(nest *loop.Nest, res *partition.Result) error {
	tr, err := transform.Transform(nest, res.Psi)
	if err != nil {
		return fmt.Errorf("transform failed: %w", err)
	}
	if det := tr.T.Det(); det != 1 && det != -1 {
		return fmt.Errorf("T = %v is not unimodular (det %d)", tr.T.A, det)
	}
	ix := res.Iter.Index
	visits := make([]int, len(ix.Points))
	var fail error
	tr.Visit(func(forall, orig []int64) {
		j, pos := tr.NewPoint(orig), ix.Pos(orig)
		if pos < 0 || !slices.Equal(forall, j[:tr.K]) || !slices.Equal(tr.Original(j), orig) {
			fail = cmp.Or(fail, fmt.Errorf("transformed loop visits %v in block %v, T·ī = %v, T⁻¹·T·ī = %v", orig, forall, j, tr.Original(j)))
			return
		}
		visits[pos]++
	})
	if pos := slices.IndexFunc(visits, func(v int) bool { return v != 1 }); pos >= 0 {
		fail = cmp.Or(fail, fmt.Errorf("transformed loop visits %v %d times", ix.Points[pos], visits[pos]))
	}
	if fail != nil {
		return fail
	}
	return checkForallView(tr, res)
}

// checkForallView verifies that the forall space a compile reads off the
// partition (transform.OfPartition) is the one Visit enumerates: the same
// nonempty forall points in the same order, with the same sizes.
func checkForallView(walked *transform.Transformed, res *partition.Result) error {
	view, err := transform.OfPartition(res.Iter)
	if err != nil {
		return fmt.Errorf("transform of the partition failed: %w", err)
	}
	if !slices.EqualFunc(view.ForallPoints(), walked.ForallPoints(), slices.Equal[[]int64]) || !slices.Equal(view.BlockSizes(), walked.BlockSizes()) {
		return fmt.Errorf("the partition's forall space %v sized %v is not Visit's %v sized %v",
			view.ForallPoints(), view.BlockSizes(), walked.ForallPoints(), walked.BlockSizes())
	}
	return nil
}

// checkInclusions verifies the partition-space lattice: duplication and
// elimination both only remove constraints, so
// Ψ_dup ⊆ Ψ_nondup, Ψ_minimal ⊆ Ψ_plain, and dim Ψ_minimal ≤ dim Ψ.
func checkInclusions(results map[partition.Strategy]*partition.Result) error {
	nd := results[partition.NonDuplicate]
	du := results[partition.Duplicate]
	mnd := results[partition.MinimalNonDuplicate]
	md := results[partition.MinimalDuplicate]
	for _, incl := range []struct {
		name     string
		sub, sup *partition.Result
	}{
		{"Ψ_dup ⊆ Ψ_nondup", du, nd},
		{"Ψ_min-nondup ⊆ Ψ_nondup (Ψ^r ⊆ Ψ)", mnd, nd},
		{"Ψ_min-dup ⊆ Ψ_dup (Ψ^r ⊆ Ψ)", md, du},
	} {
		if !incl.sub.Psi.SubspaceOf(incl.sup.Psi) {
			return fmt.Errorf("conformance: inclusion %s violated: dim %d vs %d",
				incl.name, incl.sub.Psi.Dim(), incl.sup.Psi.Dim())
		}
	}
	if mnd.Psi.Dim() > nd.Psi.Dim() {
		return fmt.Errorf("conformance: elimination increased dim Ψ: %d > %d (non-duplicate)",
			mnd.Psi.Dim(), nd.Psi.Dim())
	}
	if md.Psi.Dim() > du.Psi.Dim() {
		return fmt.Errorf("conformance: elimination increased dim Ψ: %d > %d (duplicate)",
			md.Psi.Dim(), du.Psi.Dim())
	}
	return nil
}

// checkMars verifies the usage-based partition's extension properties:
//
//   - parallelism dominance: MARS is the finest flow-closed partition,
//     and every verified strategy is flow-closed, so MARS never has
//     fewer blocks than any theorem strategy;
//   - zero redundant-copy volume: MARS allocates with the redundancy
//     oracle applied, so no (block, element) copy exists solely to
//     feed redundant work;
//   - it therefore never exceeds Selective's redundant-copy volume,
//     for any per-array duplication subset.
func checkMars(pc *partition.Context, results map[partition.Strategy]*partition.Result) error {
	mres := results[partition.Mars]
	for _, strat := range strategies {
		if strat == partition.Mars {
			continue
		}
		if mres.Iter.NumBlocks() < results[strat].Iter.NumBlocks() {
			return fmt.Errorf("conformance: mars has %d blocks, coarser than %s with %d",
				mres.Iter.NumBlocks(), strat, results[strat].Iter.NumBlocks())
		}
	}
	mv := mres.RedundantCopyVolume(mres.Redundant)
	if mv != 0 {
		return fmt.Errorf("conformance: mars redundant-copy volume = %d, want 0", mv)
	}
	arrays := pc.Index.Arrays
	if len(arrays) > 3 {
		return nil // subset sweep is exponential; the ≤-Selective bound follows from mv = 0
	}
	for mask := 0; mask < 1<<len(arrays); mask++ {
		dup := map[string]bool{}
		for i, a := range arrays {
			if mask&(1<<i) != 0 {
				dup[a] = true
			}
		}
		sel, err := pc.Compute(partition.Selective, dup, 0)
		if err != nil {
			return fmt.Errorf("conformance: selective %v: partition failed: %w", dup, err)
		}
		if sv := sel.RedundantCopyVolume(mres.Redundant); mv > sv {
			return fmt.Errorf("conformance: mars redundant-copy volume %d exceeds selective %v volume %d", mv, dup, sv)
		}
	}
	return nil
}

// checkSequentialAgreement verifies the dense sequential reference
// against the map-based oracle, both with the
// redundancy pruning of the minimal strategies and without (Section
// III.C: elimination leaves the final state unchanged).
func checkSequentialAgreement(nest *loop.Nest, results map[partition.Strategy]*partition.Result) error {
	want := exec.Sequential(nest, nil)
	for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.MinimalDuplicate} {
		red := results[strat].Redundant
		if err := exec.Equal(exec.Sequential(nest, red), want); err != nil {
			return fmt.Errorf("conformance: %s: elimination changed the sequential state: %w", strat, err)
		}
		prog, cerr := exec.CompileNest(nest, red)
		if cerr != nil {
			continue // beyond the dense caps — oracle-only nest
		}
		if err := exec.Equal(prog.Sequential(), want); err != nil {
			return fmt.Errorf("conformance: %s: dense sequential reference diverges from oracle: %w", strat, err)
		}
	}
	return nil
}

// checkParallelExecution runs the partition on the simulated machine —
// the map oracle and, when within the dense caps, the kernel — and
// demands the exact sequential state with zero inter-node traffic, and
// a kernel report indistinguishable from the oracle's.
func checkParallelExecution(nest *loop.Nest, res *partition.Result) error {
	want := exec.Sequential(nest, nil)

	rep, err := exec.Parallel(res, procs, cost)
	if err != nil {
		return fmt.Errorf("conformance: %s: oracle parallel execution failed: %w", res.Strategy, err)
	}
	if n := rep.Machine.InterNodeMessages(); n != 0 {
		return fmt.Errorf("conformance: %s: %d inter-node messages during execution", res.Strategy, n)
	}
	if err := exec.Equal(rep.Final, want); err != nil {
		return fmt.Errorf("conformance: %s: oracle parallel state diverges: %w", res.Strategy, err)
	}

	krep, err := runKernel(res, exec.Options{})
	if err != nil || krep == nil {
		return err
	}
	return compareReports(res.Strategy, "kernel vs oracle", krep, rep)
}
