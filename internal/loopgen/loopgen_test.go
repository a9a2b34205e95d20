package loopgen

import (
	"fmt"
	"math/rand"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/distplan"
	"commfree/internal/exec"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
	"commfree/internal/selector"
	"commfree/internal/transform"
)

func TestGenerateAlwaysValid(t *testing.T) {
	rnd := rand.New(rand.NewSource(100))
	cfg := DefaultConfig()
	for i := 0; i < 200; i++ {
		n := Generate(rnd, cfg)
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, n)
		}
		if n.NumIterations() == 0 {
			t.Fatalf("trial %d: empty iteration space", i)
		}
	}
}

// TestPropPartitionsCommunicationFree is the pipeline soundness property:
// every strategy's partition of every random nest must verify
// communication-free.
func TestPropPartitionsCommunicationFree(t *testing.T) {
	rnd := rand.New(rand.NewSource(101))
	cfg := DefaultConfig()
	strategies := []partition.Strategy{
		partition.NonDuplicate, partition.Duplicate,
		partition.MinimalNonDuplicate, partition.MinimalDuplicate,
	}
	for i := 0; i < 60; i++ {
		n := Generate(rnd, cfg)
		for _, s := range strategies {
			res, err := partition.Compute(n, s)
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", i, s, err, n)
			}
			if err := res.Verify(); err != nil {
				t.Fatalf("trial %d %s: partition not communication-free: %v\n%s", i, s, err, n)
			}
		}
	}
}

// TestPropDuplicateAtLeastAsParallel: the duplicate strategy never has a
// larger partitioning space than the non-duplicate one, and minimal
// variants never exceed their non-minimal counterparts.
func TestPropStrategyMonotonicity(t *testing.T) {
	rnd := rand.New(rand.NewSource(102))
	cfg := DefaultConfig()
	for i := 0; i < 60; i++ {
		n := Generate(rnd, cfg)
		nd, err := partition.Compute(n, partition.NonDuplicate)
		if err != nil {
			t.Fatal(err)
		}
		dup, err := partition.Compute(n, partition.Duplicate)
		if err != nil {
			t.Fatal(err)
		}
		mnd, err := partition.Compute(n, partition.MinimalNonDuplicate)
		if err != nil {
			t.Fatal(err)
		}
		mdup, err := partition.Compute(n, partition.MinimalDuplicate)
		if err != nil {
			t.Fatal(err)
		}
		if !dup.Psi.SubspaceOf(nd.Psi) {
			t.Fatalf("trial %d: Ψʳ=%s ⊄ Ψ=%s\n%s", i, dup.Psi, nd.Psi, n)
		}
		if !mnd.Psi.SubspaceOf(nd.Psi) {
			t.Fatalf("trial %d: Ψ^min=%s ⊄ Ψ=%s\n%s", i, mnd.Psi, nd.Psi, n)
		}
		if !mdup.Psi.SubspaceOf(dup.Psi) {
			t.Fatalf("trial %d: Ψ^minʳ=%s ⊄ Ψʳ=%s\n%s", i, mdup.Psi, dup.Psi, n)
		}
		// More parallelism = at least as many blocks.
		if dup.Iter.NumBlocks() < nd.Iter.NumBlocks() {
			t.Fatalf("trial %d: duplicate blocks %d < non-duplicate %d",
				i, dup.Iter.NumBlocks(), nd.Iter.NumBlocks())
		}
	}
}

// TestPropTransformBijective: the forall-form enumeration covers the
// iteration space exactly once for random nests and strategies.
func TestPropTransformBijective(t *testing.T) {
	rnd := rand.New(rand.NewSource(103))
	cfg := DefaultConfig()
	for i := 0; i < 40; i++ {
		n := Generate(rnd, cfg)
		strat := []partition.Strategy{partition.NonDuplicate, partition.Duplicate}[rnd.Intn(2)]
		res, err := partition.Compute(n, strat)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transform.Transform(n, res.Psi)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, n)
		}
		seen := map[string]bool{}
		tr.Visit(func(_, orig []int64) {
			k := fmt.Sprint(orig)
			if seen[k] {
				t.Fatalf("trial %d: %v twice\n%s", i, orig, n)
			}
			seen[k] = true
		})
		if int64(len(seen)) != n.NumIterations() {
			t.Fatalf("trial %d: enumerated %d of %d\n%s", i, len(seen), n.NumIterations(), n)
		}
	}
}

// TestPropParallelExecutionEquivalent: simulated parallel execution under
// any strategy reproduces sequential results with zero communication.
func TestPropParallelExecutionEquivalent(t *testing.T) {
	rnd := rand.New(rand.NewSource(104))
	cfg := DefaultConfig()
	strategies := []partition.Strategy{
		partition.NonDuplicate, partition.Duplicate, partition.MinimalDuplicate,
	}
	for i := 0; i < 30; i++ {
		n := Generate(rnd, cfg)
		strat := strategies[rnd.Intn(len(strategies))]
		procs := 1 + rnd.Intn(4)
		res, err := partition.Compute(n, strat)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := exec.Parallel(res, procs, machine.Transputer())
		if err != nil {
			t.Fatalf("trial %d (%s, p=%d): %v\n%s", i, strat, procs, err, n)
		}
		if rep.Machine.InterNodeMessages() != 0 {
			t.Fatalf("trial %d: communication during execution\n%s", i, n)
		}
		want := exec.Sequential(n, nil)
		if err := exec.Equal(want, rep.Final); err != nil {
			t.Fatalf("trial %d (%s, p=%d): %v\n%s", i, strat, procs, err, n)
		}
	}
}

// TestPropAssignmentCoversAllBlocks: every block lands on exactly one
// processor and total work is conserved.
func TestPropAssignmentConservation(t *testing.T) {
	rnd := rand.New(rand.NewSource(105))
	cfg := DefaultConfig()
	for i := 0; i < 40; i++ {
		n := Generate(rnd, cfg)
		res, err := partition.Compute(n, partition.Duplicate)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transform.Transform(n, res.Psi)
		if err != nil {
			t.Fatal(err)
		}
		p := 1 + rnd.Intn(8)
		asg := assign.Assign(tr, p)
		var sum int64
		for _, l := range asg.Workloads() {
			sum += l
		}
		if sum != n.NumIterations() {
			t.Fatalf("trial %d: workloads sum %d != %d iterations\n%s", i, sum, n.NumIterations(), n)
		}
	}
}

// TestPropPlannedDistributionEquivalent: plan-based distribution (consumer
// set grouping) must execute random nests exactly like per-node unicast.
func TestPropPlannedDistributionEquivalent(t *testing.T) {
	rnd := rand.New(rand.NewSource(107))
	cfg := DefaultConfig()
	for i := 0; i < 20; i++ {
		n := Generate(rnd, cfg)
		res, err := partition.Compute(n, partition.Duplicate)
		if err != nil {
			t.Fatal(err)
		}
		rep, plan, err := distplan.ParallelPlanned(res, 1+rnd.Intn(4), machine.Transputer())
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, n)
		}
		if rep.Machine.InterNodeMessages() != 0 {
			t.Fatalf("trial %d: communication with planned distribution\nplan:\n%s\n%s", i, plan, n)
		}
		want := exec.Sequential(n, nil)
		if err := exec.Equal(want, rep.Final); err != nil {
			t.Fatalf("trial %d: %v\nplan:\n%s\n%s", i, err, plan, n)
		}
	}
}

// TestPropSelectorCandidatesAllVerify: every candidate the selector
// prices corresponds to a verifiable communication-free partition.
func TestPropSelectorCandidatesAllVerify(t *testing.T) {
	rnd := rand.New(rand.NewSource(108))
	cfg := DefaultConfig()
	cfg.MaxArrays = 2 // keep the selective power set small
	for i := 0; i < 10; i++ {
		n := Generate(rnd, cfg)
		best, all, err := selector.Best(n, 4, machine.Transputer())
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, n)
		}
		if len(all) == 0 || best.Total > all[len(all)-1].Total {
			t.Fatalf("trial %d: ranking broken", i)
		}
		for _, c := range all {
			if c.Total < 0 || c.Blocks < 1 {
				t.Fatalf("trial %d: degenerate candidate %s", i, c)
			}
		}
	}
}

func TestGenerateNonSingularConfig(t *testing.T) {
	rnd := rand.New(rand.NewSource(106))
	cfg := DefaultConfig()
	cfg.AllowSingular = false
	for i := 0; i < 50; i++ {
		n := Generate(rnd, cfg)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(7)), DefaultConfig())
	b := Generate(rand.New(rand.NewSource(7)), DefaultConfig())
	if a.String() != b.String() {
		t.Error("generation not deterministic for equal seeds")
	}
}

var _ = loop.LexLess // keep the import referenced if helpers change
