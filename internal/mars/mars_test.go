package mars_test

import (
	"testing"

	"commfree/internal/lang"
	"commfree/internal/mars"
	"commfree/internal/partition"
)

// cosetStrategies are the paper's four globally-computable strategies.
var cosetStrategies = []partition.Strategy{
	partition.NonDuplicate,
	partition.Duplicate,
	partition.MinimalNonDuplicate,
	partition.MinimalDuplicate,
}

// TestMarsCorpus checks the core MARS invariants on every parseable
// corpus nest: the partition Verifies communication-free, its
// redundant-copy volume is zero, and it is at least as fine as every
// verified coset strategy (the flow closure is the finest flow-closed
// partition, and every verified partition is flow-closed).
func TestMarsCorpus(t *testing.T) {
	for _, src := range lang.Corpus() {
		nest, err := lang.Parse(src)
		if err != nil {
			continue
		}
		res, err := mars.Compute(nest)
		if err != nil {
			t.Fatalf("mars.Compute(%q): %v", src, err)
		}
		if res.Strategy != partition.Mars {
			t.Fatalf("strategy = %v, want Mars", res.Strategy)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("nest %q: MARS partition not communication-free: %v", src, err)
		}
		if v := res.RedundantCopyVolume(res.Redundant); v != 0 {
			t.Errorf("nest %q: MARS redundant-copy volume = %d, want 0", src, v)
		}
		for _, st := range cosetStrategies {
			other, err := partition.Compute(nest, st)
			if err != nil {
				t.Fatalf("partition.Compute(%q, %v): %v", src, st, err)
			}
			if res.Iter.NumBlocks() < other.Iter.NumBlocks() {
				t.Errorf("nest %q: MARS has %d blocks, coarser than %v with %d",
					src, res.Iter.NumBlocks(), st, other.Iter.NumBlocks())
			}
		}
	}
}

// TestMarsSplitsInterleavedChains pins the case where the flow closure
// is strictly finer than every coset strategy: A[i] = A[i-2] + 2 has
// two independent chains (odd and even), but span{(2)} is the whole
// line, so all four paper strategies collapse to one block.
func TestMarsSplitsInterleavedChains(t *testing.T) {
	nest := lang.MustParse("for i = 1 to 8\n A[i] = A[i-2] + 2\nend")
	res, err := mars.Compute(nest)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Iter.NumBlocks(); got != 2 {
		t.Fatalf("MARS blocks = %d, want 2 (odd and even chains)", got)
	}
	for _, st := range cosetStrategies {
		other, err := partition.Compute(nest, st)
		if err != nil {
			t.Fatal(err)
		}
		if got := other.Iter.NumBlocks(); got != 1 {
			t.Fatalf("%v blocks = %d, want 1", st, got)
		}
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMarsBeatsSelectiveOnRedundantFeed is the strict-improvement
// witness of the acceptance criteria: on the corpus seed whose S1 is
// overwritten before any read, the copies of B feed only redundant
// work. Every Selective duplication choice still allocates them;
// MARS allocates none.
func TestMarsBeatsSelectiveOnRedundantFeed(t *testing.T) {
	nest := lang.MustParse("for i = 1 to 6\n S1: A[i] = B[i] + 1\n S2: A[i] = C[i] * 2\n S3: D[i] = A[i] + C[i]\nend")
	res, err := mars.Compute(nest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redundant.NumRedundant() == 0 {
		t.Fatal("seed has no redundant computations — witness is vacuous")
	}
	if v := res.RedundantCopyVolume(res.Redundant); v != 0 {
		t.Fatalf("MARS redundant-copy volume = %d, want 0", v)
	}
	arrays := nest.Arrays()
	for mask := 0; mask < 1<<len(arrays); mask++ {
		dup := map[string]bool{}
		for i, a := range arrays {
			if mask&(1<<i) != 0 {
				dup[a] = true
			}
		}
		sel, err := partition.ComputeSelective(nest, dup)
		if err != nil {
			t.Fatal(err)
		}
		if v := sel.RedundantCopyVolume(res.Redundant); v <= 0 {
			t.Errorf("selective %v: redundant-copy volume = %d, want > 0 (strict MARS improvement)", dup, v)
		}
	}
}

// TestMarsCoversIterationSpace checks that iterations whose
// computations are entirely redundant still land in (singleton)
// blocks, so BlockOf never reports a gap.
func TestMarsCoversIterationSpace(t *testing.T) {
	nest := lang.MustParse("for i = 1 to 6\n S1: A[i] = B[i] + 1\n S2: A[i] = C[i] * 2\n S3: D[i] = A[i] + C[i]\nend")
	res, err := mars.Compute(nest)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, it := range nest.Iterations() {
		if res.Iter.BlockOf(it) == nil {
			t.Fatalf("iteration %v not covered", it)
		}
		covered++
	}
	total := 0
	for _, b := range res.Iter.Blocks {
		total += b.Size()
	}
	if total != covered {
		t.Fatalf("blocks hold %d iterations, iteration space has %d", total, covered)
	}
}
