package conformance

// Normalization conformance: the differential dimension for the affine
// front end. For a generated affine nest and its hand-uniformized twin
// (loopgen.GenerateAffine / loopgen.Uniformize — an independent
// re-implementation of the rewrite rules, not the pass itself),
// CheckNormalize proves that
//
//   - the pass accepts the nest and its output validates as uniformly
//     generated;
//   - the output is canonically identical to the twin (same plan, so
//     every downstream stage — selector, partition, transform, plan
//     store, cluster routing — is byte-identical);
//   - the output preserves the original semantics: running the
//     normalized nest and relabeling every element through the
//     recorded index maps reproduces, bit for bit, the sequential
//     state of the raw nest with its symbolic constants bound;
//   - under every allocation strategy, oracle and kernel execution of
//     the normalized nest agree with the twin's — final state and
//     machine accounting (messages, data moved, distribution time,
//     per-node workloads) exactly equal;
//   - a seeded chaos schedule perturbs neither.

import (
	"fmt"

	"commfree/internal/chaos"
	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/normalize"
	"commfree/internal/partition"
)

// CheckNormalize runs the normalization conformance dimension on one
// affine case. chaosSeed ≠ 0 additionally re-executes one strategy
// under a deterministic fault schedule and demands recovery to the
// identical state. A nil return means every property held.
func CheckNormalize(a *lang.AffineNest, twin *loop.Nest, symVals map[string]int64, chaosSeed int64) error {
	res, err := normalize.Apply(a)
	if err != nil {
		return fmt.Errorf("conformance: normalize rejected a normalizable nest: %w", err)
	}
	if err := res.Nest.Validate(); err != nil {
		return fmt.Errorf("conformance: normalized nest invalid: %w", err)
	}
	if got, want := lang.Canonical(res.Nest), lang.Canonical(twin); got != want {
		return fmt.Errorf("conformance: normalized nest diverges from hand-uniformized twin:\n--- normalize ---\n%s\n--- twin ---\n%s", got, want)
	}
	if res.Nest.NumIterations() > maxExecIterations {
		return nil
	}
	if err := checkGrounding(a, res, symVals); err != nil {
		return err
	}
	return checkNormalizedExecution(res.Nest, twin, chaosSeed)
}

// checkGrounding proves the index maps are semantics-preserving: run
// the normalized nest with reads of untouched elements seeded from the
// ORIGINAL element's initial value, then relabel every written element
// back through OldIndex — the result must equal sequential execution of
// the raw nest with its symbolic constants bound.
func checkGrounding(a *lang.AffineNest, res *normalize.Result, symVals map[string]int64) error {
	bound, err := a.Bind(symVals)
	if err != nil {
		return fmt.Errorf("conformance: binding symbolic constants: %w", err)
	}
	want := exec.Sequential(bound, nil)

	got := exec.SequentialInit(res.Nest, nil, func(array string, idx []int64) float64 {
		return exec.InitValue(array, res.OldIndex(array, idx, symVals))
	})
	mapped := make(map[string]float64, len(got))
	for k, v := range got {
		array, idx, perr := exec.ParseKey(k)
		if perr != nil {
			return fmt.Errorf("conformance: %w", perr)
		}
		mapped[exec.Key(array, res.OldIndex(array, idx, symVals))] = v
	}
	if err := exec.Equal(mapped, want); err != nil {
		return fmt.Errorf("conformance: normalized semantics diverge from the raw nest: %w", err)
	}
	return nil
}

// checkNormalizedExecution runs normalized nest and twin through every
// strategy × engine pair and demands bit-identical results and machine
// accounting. The canonical-equality check already makes the plans
// equal; this proves the equality survives the entire execution stack,
// and that a chaos schedule replayed on both sides cannot tell them
// apart.
func checkNormalizedExecution(nest, twin *loop.Nest, chaosSeed int64) error {
	want := exec.Sequential(nest, nil)
	npc, err := analyze(nest)
	if err != nil {
		return err
	}
	tpc, err := analyze(twin)
	if err != nil {
		return err
	}

	for _, strat := range strategies {
		nres, err := npc.Compute(strat, nil, 0)
		if err != nil {
			return fmt.Errorf("conformance: %s: partition of normalized nest failed: %w", strat, err)
		}
		tres, err := tpc.Compute(strat, nil, 0)
		if err != nil {
			return fmt.Errorf("conformance: %s: partition of twin failed: %w", strat, err)
		}

		// Each engine runs both sides: the normalized nest must reproduce
		// the sequential state, and the twin must be indistinguishable
		// from it.
		for _, engine := range engines {
			nrep, err := engine.run(nres, exec.Options{})
			if err != nil {
				return fmt.Errorf("conformance: %s: %s execution of normalized nest failed: %w", strat, engine.name, err)
			}
			trep, err := engine.run(tres, exec.Options{})
			if err != nil {
				return fmt.Errorf("conformance: %s: %s execution of twin failed: %w", strat, engine.name, err)
			}
			if (nrep == nil) != (trep == nil) {
				return fmt.Errorf("conformance: %s: dense compilability differs: normalized %v, twin %v", strat, nrep != nil, trep != nil)
			}
			if nrep == nil {
				continue
			}
			if err := exec.Equal(nrep.Final, want); err != nil {
				return fmt.Errorf("conformance: %s: %s parallel state diverges from sequential: %w", strat, engine.name, err)
			}
			if err := compareReports(strat, engine.name+", normalized nest vs twin", nrep, trep); err != nil {
				return err
			}
		}

		if chaosSeed != 0 && strat == partition.Duplicate {
			ncrep, err := exec.ParallelOpts(nres, procs, cost, exec.Options{Chaos: chaos.Default(chaosSeed)})
			if err != nil {
				return fmt.Errorf("conformance: %s: chaos execution of normalized nest failed: %w", strat, err)
			}
			tcrep, err := exec.ParallelOpts(tres, procs, cost, exec.Options{Chaos: chaos.Default(chaosSeed)})
			if err != nil {
				return fmt.Errorf("conformance: %s: chaos execution of twin failed: %w", strat, err)
			}
			if err := exec.Equal(ncrep.Final, want); err != nil {
				return fmt.Errorf("conformance: %s: chaos recovery diverges from sequential: %w", strat, err)
			}
			if err := exec.Equal(ncrep.Final, tcrep.Final); err != nil {
				return fmt.Errorf("conformance: %s: chaos recovery differs between normalized nest and twin: %w", strat, err)
			}
		}
	}
	return nil
}

// compareReports demands that two execution reports are indistinguishable
// in result and machine accounting.
func compareReports(strat partition.Strategy, pair string, a, b *exec.Report) error {
	if err := exec.Equal(a.Final, b.Final); err != nil {
		return fmt.Errorf("conformance: %s/%s: final state differs: %w", strat, pair, err)
	}
	am, bm := a.Machine, b.Machine
	if x, y := am.InterNodeMessages(), bm.InterNodeMessages(); x != y {
		return fmt.Errorf("conformance: %s/%s: inter-node messages differ: %d vs %d", strat, pair, x, y)
	}
	if x, y := am.Messages(), bm.Messages(); x != y {
		return fmt.Errorf("conformance: %s/%s: total messages differ: %d vs %d", strat, pair, x, y)
	}
	if x, y := am.DataMoved(), bm.DataMoved(); x != y {
		return fmt.Errorf("conformance: %s/%s: data moved differs: %d vs %d", strat, pair, x, y)
	}
	if x, y := am.DistributionTime(), bm.DistributionTime(); x != y {
		return fmt.Errorf("conformance: %s/%s: distribution time differs: %v vs %v", strat, pair, x, y)
	}
	if len(a.IterationsPerNode) != len(b.IterationsPerNode) {
		return fmt.Errorf("conformance: %s/%s: node counts differ: %d vs %d", strat, pair, len(a.IterationsPerNode), len(b.IterationsPerNode))
	}
	for i := range a.IterationsPerNode {
		if a.IterationsPerNode[i] != b.IterationsPerNode[i] {
			return fmt.Errorf("conformance: %s/%s: node %d workload differs: %d vs %d", strat, pair, i, a.IterationsPerNode[i], b.IterationsPerNode[i])
		}
	}
	return nil
}
