// Matmul reproduces the paper's evaluation: matrix multiplication (loop
// L5) is sequential under the non-duplicate strategy, becomes row-parallel
// when array B is duplicated (L5′), and fully tile-parallel when both A
// and B are duplicated (L5″). The example prints the strategy comparison,
// a condensed Table I/II, and validates the parallel runs element-for-
// element against sequential execution.
package main

import (
	"fmt"
	"log"

	"commfree"
)

func main() {
	nest := commfree.LoopL5(4)

	// Strategy comparison on the 4×4×4 instance.
	nd, err := commfree.Partition(nest, commfree.NonDuplicate)
	if err != nil {
		log.Fatal(err)
	}
	sel, err := commfree.PartitionSelective(nest, map[string]bool{"B": true, "C": true})
	if err != nil {
		log.Fatal(err)
	}
	dup, err := commfree.Partition(nest, commfree.Duplicate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("strategy comparison for C[i,j] += A[i,k]*B[k,j] (M=4):")
	fmt.Printf("  non-duplicate (Theorem 1): Ψ = %-28s → %2d block(s)  [sequential]\n",
		nd.Psi, nd.Iter.NumBlocks())
	fmt.Printf("  duplicate B only   (L5′):  Ψ = %-28s → %2d block(s)  [row parallel]\n",
		sel.Psi, sel.Iter.NumBlocks())
	fmt.Printf("  duplicate A and B  (L5″):  Ψ = %-28s → %2d block(s)  [tile parallel]\n",
		dup.Psi, dup.Iter.NumBlocks())

	for name, r := range map[string]*commfree.PartitionResult{"L5": nd, "L5′": sel, "L5″": dup} {
		if err := r.Verify(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	fmt.Println("  (all three verified communication-free)")

	// Condensed Tables I and II.
	cost := commfree.TransputerCost()
	rows, err := commfree.TableI([]int64{16, 64, 256}, []int{4, 16}, cost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsimulated Transputer mesh (t_comp=9.6µs, t_start=0.5ms, t_comm=2.3µs):")
	fmt.Printf("  %4s %3s %12s %12s %12s %8s %8s\n", "M", "p", "seq(s)", "L5′(s)", "L5″(s)", "S′", "S″")
	for _, r := range rows {
		fmt.Printf("  %4d %3d %12.4f %12.4f %12.4f %8.2f %8.2f\n",
			r.M, r.P, r.Sequential, r.Prime, r.DoublePrime,
			r.SpeedupPrime(), r.SpeedupDoublePrime())
	}

	// Validation at small M: compile L5′ and L5″, execute their derived
	// distribution plans with real data.
	want := commfree.SequentialMatMul(16)
	repP, _, err := commfree.RunL5Prime(16, 4, cost)
	if err != nil {
		log.Fatal(err)
	}
	repD, _, err := commfree.RunL5DoublePrime(16, 16, cost)
	if err != nil {
		log.Fatal(err)
	}
	for name, rep := range map[string]*commfree.ExecutionReport{"L5′": repP, "L5″": repD} {
		if n := commfree.Mismatches(rep.Final, want); n != 0 || rep.Machine.InterNodeMessages() != 0 {
			log.Fatalf("%s: %d mismatches, %d inter-node messages", name, n, rep.Machine.InterNodeMessages())
		}
	}
	fmt.Println("\nvalidation: L5′ (p=4) and L5″ (p=16) reproduce sequential matmul exactly at M=16, zero inter-node messages")
}
