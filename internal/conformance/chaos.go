package conformance

// The chaos dimension of the conformance suite: the paper's theorems
// promise that blocks never communicate, which makes each block an
// atomic recovery unit. CheckChaos turns that promise into a checked
// property — under a seeded schedule of injected crashes, slow nodes,
// and lossy distribution links, a parallel run must still end
// bit-identical to the fault-free sequential state, within a bounded
// number of block retries, without a single inter-node message.

import (
	"fmt"

	"commfree/internal/chaos"
	"commfree/internal/exec"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// CheckChaos runs one nest under the seed's failure schedule on every
// parallel engine (the map oracle, plus the kernel when the nest is
// within the dense caps) and verifies chaos-recovery:
//
//   - final state equals the fault-free sequential reference exactly;
//   - block retries stay within blocks × MaxFailuresPerBlock;
//   - zero inter-node messages — recovery is communication-free too.
//
// Nests beyond maxExecIterations are skipped (nil), like the execution
// properties of Check.
func CheckChaos(nest *loop.Nest, strat partition.Strategy, seed int64) error {
	if err := nest.Validate(); err != nil {
		return fmt.Errorf("conformance: input nest invalid: %w", err)
	}
	if nest.NumIterations() > maxExecIterations {
		return nil
	}
	res, err := computeFor(nest, strat)
	if err != nil {
		return fmt.Errorf("conformance: %s: partition failed: %w", strat, err)
	}
	const procs = 4
	cost := machine.Transputer()
	want := exec.Sequential(nest, nil)

	check := func(engine string, run func(inj *chaos.Injector) (*exec.Report, error)) error {
		inj := chaos.Default(seed)
		rep, err := run(inj)
		if err != nil {
			return fmt.Errorf("conformance: %s/%s: chaos run failed under seed %d: %w", strat, engine, seed, err)
		}
		if n := rep.Machine.InterNodeMessages(); n != 0 {
			return fmt.Errorf("conformance: %s/%s: %d inter-node messages during chaos recovery (seed %d)", strat, engine, n, seed)
		}
		if err := exec.Equal(rep.Final, want); err != nil {
			return fmt.Errorf("conformance: %s/%s: chaos state diverges from fault-free run (seed %d): %w", strat, engine, seed, err)
		}
		if bound := int64(len(res.Iter.Blocks) * inj.MaxFailuresPerBlock()); rep.Chaos.Retries > bound {
			return fmt.Errorf("conformance: %s/%s: %d retries exceed bound %d (seed %d)", strat, engine, rep.Chaos.Retries, bound, seed)
		}
		return nil
	}

	if err := check("oracle", func(inj *chaos.Injector) (*exec.Report, error) {
		return exec.ParallelOpts(res, procs, cost, exec.Options{Chaos: inj})
	}); err != nil {
		return err
	}
	if prog, cerr := exec.CompileNest(nest, res.Redundant); cerr == nil {
		kern, serr := prog.Specialize(res, procs)
		if serr != nil {
			return fmt.Errorf("conformance: %s: kernel specialization failed: %w", strat, serr)
		}
		return check("kernel", func(inj *chaos.Injector) (*exec.Report, error) {
			return kern.Run(cost, exec.Options{Chaos: inj})
		})
	}
	return nil
}
