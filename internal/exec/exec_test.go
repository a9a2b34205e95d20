package exec

import (
	"testing"

	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// checkParallel partitions the nest under the strategy, executes it on p
// simulated processors, and requires zero inter-node communication plus a
// final state identical to the sequential reference.
func checkParallel(t *testing.T, nest *loop.Nest, strat partition.Strategy, p int) *Report {
	t.Helper()
	res, err := partition.Compute(nest, strat)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("partition not communication-free: %v", err)
	}
	rep, err := Parallel(res, p, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Machine.InterNodeMessages(); got != 0 {
		t.Errorf("inter-node messages = %d, want 0", got)
	}
	want := Sequential(nest, nil)
	if err := Equal(want, rep.Final); err != nil {
		t.Errorf("parallel result differs from sequential: %v", err)
	}
	return rep
}

func TestParallelL1(t *testing.T) {
	for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate} {
		for _, p := range []int{1, 2, 4} {
			rep := checkParallel(t, loop.L1(), strat, p)
			var total int64
			for _, c := range rep.IterationsPerNode {
				total += c
			}
			if total != 16 {
				t.Errorf("%s p=%d: total iterations = %d", strat, p, total)
			}
		}
	}
}

func TestParallelL2Duplicate(t *testing.T) {
	rep := checkParallel(t, loop.L2(), partition.Duplicate, 4)
	// All 4 processors busy (16 singleton blocks cyclically assigned).
	for id, c := range rep.IterationsPerNode {
		if c == 0 {
			t.Errorf("PE%d idle", id)
		}
	}
}

func TestParallelL2NonDuplicateSequential(t *testing.T) {
	rep := checkParallel(t, loop.L2(), partition.NonDuplicate, 4)
	// Sequential partition: one processor does everything.
	busy := 0
	for _, c := range rep.IterationsPerNode {
		if c > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("busy processors = %d, want 1", busy)
	}
}

func TestParallelL3MinimalDuplicate(t *testing.T) {
	// Theorem 4 partition is communication-free only after removing the
	// redundant computations; the executor must skip them and still
	// reproduce the full sequential state.
	checkParallel(t, loop.L3(), partition.MinimalDuplicate, 4)
}

func TestParallelL4(t *testing.T) {
	rep := checkParallel(t, loop.L4(), partition.NonDuplicate, 4)
	// Fig. 10: balanced 16/16/16/16.
	if len(rep.IterationsPerNode) != 4 {
		t.Fatalf("nodes = %d", len(rep.IterationsPerNode))
	}
	for id, c := range rep.IterationsPerNode {
		if c != 16 {
			t.Errorf("PE%d = %d iterations, want 16", id, c)
		}
	}
}

func TestParallelL5Duplicate(t *testing.T) {
	checkParallel(t, loop.L5(4), partition.Duplicate, 4)
	checkParallel(t, loop.L5(4), partition.Duplicate, 16)
}

func TestSequentialDeterministic(t *testing.T) {
	a := Sequential(loop.L1(), nil)
	b := Sequential(loop.L1(), nil)
	if err := Equal(a, b); err != nil {
		t.Error(err)
	}
	if len(a) == 0 {
		t.Error("empty final state")
	}
}

func TestSequentialRedundantSkipEquivalent(t *testing.T) {
	res, err := partition.Compute(loop.L3(), partition.MinimalDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	full := Sequential(loop.L3(), nil)
	pruned := Sequential(loop.L3(), res.Redundant)
	if err := Equal(full, pruned); err != nil {
		t.Errorf("pruned execution differs: %v", err)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	if err := Equal(map[string]float64{"a": 1}, map[string]float64{"a": 2}); err == nil {
		t.Error("value difference undetected")
	}
	if err := Equal(map[string]float64{"a": 1}, map[string]float64{}); err == nil {
		t.Error("size difference undetected")
	}
	if err := Equal(map[string]float64{"a": 1}, map[string]float64{"b": 1}); err == nil {
		t.Error("key difference undetected")
	}
}

// TestMismatchesCountsSurplusAndMissing: a state that invents an element
// and one that loses an element each fail validation by exactly one — the
// one-sided `for k, v := range want` loop sees neither the first nor, when
// want is the strict subset, the second.
func TestMismatchesCountsSurplusAndMissing(t *testing.T) {
	want := map[string]float64{"A[1]": 1, "A[2]": 2}
	surplus := map[string]float64{"A[1]": 1, "A[2]": 2, "A[3]": 3}
	missing := map[string]float64{"A[1]": 1}
	if n := Mismatches(want, want); n != 0 {
		t.Errorf("equal states: %d mismatches", n)
	}
	if n := Mismatches(surplus, want); n != 1 {
		t.Errorf("surplus element: %d mismatches, want 1", n)
	}
	if n := Mismatches(missing, want); n != 1 {
		t.Errorf("missing element: %d mismatches, want 1", n)
	}
	if n := Mismatches(want, missing); n != 1 {
		t.Errorf("want a strict subset of got: %d mismatches, want 1", n)
	}
}

func TestInitValueStable(t *testing.T) {
	v1 := InitValue("A", []int64{1, 2})
	v2 := InitValue("A", []int64{1, 2})
	if v1 != v2 {
		t.Error("InitValue not deterministic")
	}
	if InitValue("A", []int64{1, 2}) == InitValue("B", []int64{1, 2}) &&
		InitValue("A", []int64{1, 3}) == InitValue("A", []int64{1, 2}) {
		t.Error("InitValue suspiciously constant")
	}
}

func TestParallelChargesDistribution(t *testing.T) {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Parallel(res, 4, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machine.DistributionTime() <= 0 {
		t.Error("no distribution time charged")
	}
	if rep.Machine.ComputeTime() <= 0 {
		t.Error("no compute time charged")
	}
}
