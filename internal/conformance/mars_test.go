package conformance

// The MARS dimension of the conformance suite: the acceptance sweep
// for the usage-based fifth strategy. Check already proves, per nest,
// that the MARS partition Verifies communication-free, never has fewer
// blocks than any theorem strategy, and has zero redundant-copy volume
// (hence ≤ Selective's for every duplication subset). The tests here
// drive that through 500 usage-biased seeded nests with Mars as the
// execution strategy — both engines, the kernel bit-identical to the oracle
// — plus seeded chaos schedules and the corpus strict-improvement
// witness.

import (
	"math/rand"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/mars"
	"commfree/internal/partition"
)

// TestMarsConformanceSeededNests is the 500-nest MARS sweep: nests are
// drawn from the usage-biased generator (overwritten producers,
// partial-overlap consumer sets) so the MARS-specific properties are
// non-vacuous, and the parallel-execution property runs under Mars.
func TestMarsConformanceSeededNests(t *testing.T) {
	if testing.Short() {
		t.Skip("MARS conformance sweep skipped in -short")
	}
	rnd := rand.New(rand.NewSource(20260807))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < 500; i++ {
		nest := loopgen.GenerateUsage(rnd, cfg)
		if err := Check(nest, partition.Mars); err != nil {
			reportShrunk(t, nest, err, func(n *loop.Nest) bool { return Check(n, partition.Mars) != nil })
			return
		}
	}
}

// TestMarsChaosConformance replays seeded fault schedules with the
// MARS partition on every engine: recovery must stay exactly-once
// (bit-identical final state, bounded retries, zero messages).
func TestMarsChaosConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("MARS chaos sweep skipped in -short")
	}
	rnd := rand.New(rand.NewSource(99))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < 50; i++ {
		nest := loopgen.GenerateUsage(rnd, cfg)
		seed := int64(i * 7)
		if err := CheckChaos(nest, partition.Mars, seed); err != nil {
			reportShrunk(t, nest, err, func(n *loop.Nest) bool {
				return CheckChaos(n, partition.Mars, seed) != nil
			})
			return
		}
	}
}

// TestMarsStrictImprovementOnCorpus pins the acceptance criterion that
// MARS's redundant-copy volume strictly beats Selective's on at least
// one corpus seed (and never loses on any). The volume is compared
// against the cheapest Selective duplication subset, so the witness
// cannot be an artifact of one unlucky subset choice.
func TestMarsStrictImprovementOnCorpus(t *testing.T) {
	strict := 0
	for _, src := range lang.Corpus() {
		nest, err := lang.Parse(src)
		if err != nil {
			continue
		}
		res, err := mars.Compute(nest)
		if err != nil {
			t.Fatalf("mars.Compute(%q): %v", src, err)
		}
		mv := res.RedundantCopyVolume(res.Redundant)
		arrays := nest.Arrays()
		if len(arrays) > 4 {
			continue
		}
		minSel := -1
		for mask := 0; mask < 1<<len(arrays); mask++ {
			dup := map[string]bool{}
			for i, a := range arrays {
				if mask&(1<<i) != 0 {
					dup[a] = true
				}
			}
			sel, err := partition.ComputeSelective(nest, dup)
			if err != nil {
				t.Fatalf("selective %v on %q: %v", dup, src, err)
			}
			sv := sel.RedundantCopyVolume(res.Redundant)
			if mv > sv {
				t.Errorf("nest %q: MARS volume %d exceeds selective %v volume %d", src, mv, dup, sv)
			}
			if minSel < 0 || sv < minSel {
				minSel = sv
			}
		}
		if minSel > mv {
			strict++
		}
	}
	if strict == 0 {
		t.Fatal("no corpus seed shows strict MARS improvement over every Selective subset — acceptance witness missing")
	}
}
