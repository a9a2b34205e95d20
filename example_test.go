package commfree_test

import (
	"fmt"

	"commfree"
)

// ExampleCompile shows the full pipeline on the paper's loop L1: analyze,
// partition along the flow-dependence direction, and report the degree of
// parallelism.
func ExampleCompile() {
	comp, err := commfree.Compile(`
for i = 1 to 4
  for j = 1 to 4
    S1: A[2i, j]  = C[i, j] * 7
    S2: B[j, i+1] = A[2i-2, j-1] + C[i-1, j-1]
  end
end
`, commfree.NonDuplicate, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("Ψ =", comp.Partition.Psi)
	fmt.Println("blocks:", comp.Partition.Iter.NumBlocks())
	fmt.Println("verify:", comp.Verify() == nil)
	// Output:
	// Ψ = span{(1,1)}
	// blocks: 7
	// verify: true
}

// ExamplePartition contrasts the non-duplicate and duplicate strategies
// on loop L2, where duplication unlocks all 16 iterations.
func ExamplePartition() {
	nd, _ := commfree.Partition(commfree.LoopL2(), commfree.NonDuplicate)
	dup, _ := commfree.Partition(commfree.LoopL2(), commfree.Duplicate)
	fmt.Println("non-duplicate blocks:", nd.Iter.NumBlocks())
	fmt.Println("duplicate blocks:", dup.Iter.NumBlocks())
	// Output:
	// non-duplicate blocks: 1
	// duplicate blocks: 16
}

// ExampleEliminateRedundant reproduces the paper's loop L3 analysis: 12
// of the 16 S1 computations are redundant, leaving N(S1) = {(i,4)}.
func ExampleEliminateRedundant() {
	r, _ := commfree.EliminateRedundant(commfree.LoopL3())
	fmt.Println("redundant computations:", r.NumRedundant())
	fmt.Println("N(S1) size:", len(r.NonRedundant(0)))
	fmt.Println("N(S2) size:", len(r.NonRedundant(1)))
	// Output:
	// redundant computations: 12
	// N(S1) size: 4
	// N(S2) size: 16
}

// ExampleCompilation_Execute runs the compiled loop on the simulated
// multicomputer and checks the communication-free guarantee held.
func ExampleCompilation_Execute() {
	comp, _ := commfree.CompileNest(commfree.LoopL4(), commfree.NonDuplicate, 4)
	rep, err := comp.Execute(commfree.TransputerCost())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("inter-node messages:", rep.Machine.InterNodeMessages())
	fmt.Println("workloads:", rep.IterationsPerNode)
	// Output:
	// inter-node messages: 0
	// workloads: [16 16 16 16]
}

// ExampleHyperplane shows the baseline comparison the paper makes: the
// hyperplane method cannot handle L1 at all.
func ExampleHyperplane() {
	h, _ := commfree.Hyperplane(commfree.LoopL1())
	fmt.Println(h)
	// Output:
	// hyperplane method not applicable (not a For-all loop)
}

// ExampleRunL5DoublePrime compiles the doubly-duplicated matrix multiply
// and executes its derived distribution plan with real data on strictly
// local memories: zero inter-node messages and results identical to the
// sequential product.
func ExampleRunL5DoublePrime() {
	rep, plan, err := commfree.RunL5DoublePrime(8, 4, commfree.TransputerCost())
	if err != nil {
		fmt.Println(err)
		return
	}
	st := plan.Stats()
	fmt.Printf("derived plan: %d multicasts, %d unicasts\n", st.Multicasts, st.Unicasts)
	fmt.Println("identical to sequential:", commfree.Mismatches(rep.Final, commfree.SequentialMatMul(8)) == 0)
	fmt.Println("inter-node messages:", rep.Machine.InterNodeMessages())
	// Output:
	// derived plan: 4 multicasts, 4 unicasts
	// identical to sequential: true
	// inter-node messages: 0
}
