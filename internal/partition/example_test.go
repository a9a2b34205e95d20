package partition_test

import (
	"fmt"

	"commfree/internal/loop"
	"commfree/internal/partition"
)

// ExampleCompute reproduces the paper's Example 1 analysis: loop L1
// partitions along the flow-dependence direction (1,1) into seven
// communication-free blocks.
func ExampleCompute() {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("Ψ_A =", res.PerArray["A"])
	fmt.Println("Ψ_B =", res.PerArray["B"])
	fmt.Println("Ψ =", res.Psi)
	fmt.Println("blocks:", res.Iter.NumBlocks())
	fmt.Println("communication-free:", res.Verify() == nil)
	// Output:
	// Ψ_A = span{(1,1)}
	// Ψ_B = span{}
	// Ψ = span{(1,1)}
	// blocks: 7
	// communication-free: true
}

// ExampleCompute_duplicate shows Theorem 2 on loop L2: both arrays are
// fully duplicable, so the reduced partitioning space is trivial and all
// 16 iterations run in parallel.
func ExampleCompute_duplicate() {
	res, _ := partition.Compute(loop.L2(), partition.Duplicate)
	fmt.Println("Ψʳ =", res.Psi)
	fmt.Println("blocks:", res.Iter.NumBlocks())
	fmt.Println("A duplicated:", res.DataPartition("A").Duplicated)
	// Output:
	// Ψʳ = span{}
	// blocks: 16
	// A duplicated: true
}

// ExampleCompute_minimal shows Theorem 4 on loop L3: after eliminating
// the redundant computations, only the flow dependence (1,0) remains and
// the loop splits into four column blocks.
func ExampleCompute_minimal() {
	res, _ := partition.Compute(loop.L3(), partition.MinimalDuplicate)
	fmt.Println("Ψ^minʳ =", res.Psi)
	fmt.Println("blocks:", res.Iter.NumBlocks())
	fmt.Println("redundant computations:", res.Redundant.NumRedundant())
	// Output:
	// Ψ^minʳ = span{(1,0)}
	// blocks: 4
	// redundant computations: 12
}
