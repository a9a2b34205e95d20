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
	pc, err := analyze(nest)
	if err != nil {
		return err
	}
	res, err := pc.Compute(strat, nil, 0)
	if err != nil {
		return fmt.Errorf("conformance: %s: partition failed: %w", strat, err)
	}
	want := exec.Sequential(nest, nil)

	for _, engine := range engines {
		inj := chaos.Default(seed)
		rep, err := engine.run(res, exec.Options{Chaos: inj})
		if err != nil {
			return fmt.Errorf("conformance: %s/%s: chaos run failed under seed %d: %w", strat, engine.name, seed, err)
		}
		if rep == nil {
			continue
		}
		if n := rep.Machine.InterNodeMessages(); n != 0 {
			return fmt.Errorf("conformance: %s/%s: %d inter-node messages during chaos recovery (seed %d)", strat, engine.name, n, seed)
		}
		if err := exec.Equal(rep.Final, want); err != nil {
			return fmt.Errorf("conformance: %s/%s: chaos state diverges from fault-free run (seed %d): %w", strat, engine.name, seed, err)
		}
		if bound := int64(len(res.Iter.Blocks) * inj.MaxFailuresPerBlock()); rep.Chaos.Retries > bound {
			return fmt.Errorf("conformance: %s/%s: %d retries exceed bound %d (seed %d)", strat, engine.name, rep.Chaos.Retries, bound, seed)
		}
	}
	return nil
}
