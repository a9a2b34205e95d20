// Quickstart: parse a nested loop, derive a communication-free partition,
// transform it to parallel forall form, and execute it on the simulated
// multicomputer — the full pipeline on the paper's loop L1.
package main

import (
	"fmt"
	"log"

	"commfree"
)

const src = `
# Loop L1 from Chen & Sheu (1993): three arrays, one flow dependence.
for i = 1 to 4
  for j = 1 to 4
    S1: A[2i, j]  = C[i, j] * 7
    S2: B[j, i+1] = A[2i-2, j-1] + C[i-1, j-1]
  end
end
`

func main() {
	// Compile = parse + analyze + partition + transform + assign.
	comp, err := commfree.Compile(src, commfree.NonDuplicate, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("partitioning space Ψ:", comp.Partition.Psi)
	fmt.Printf("parallelism: %d iteration blocks across a %d-dimensional forall space\n\n",
		comp.Partition.Iter.NumBlocks(), comp.Partition.ParallelismDim())

	fmt.Println("transformed loop:")
	fmt.Println(comp.Transformed)

	// The guarantee is checkable: every dependence stays inside a block.
	if err := comp.Verify(); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Println("verified: no dependence crosses an iteration block")

	// Execute on 4 simulated processors with strictly local memories.
	rep, err := comp.Execute(commfree.TransputerCost())
	if err != nil {
		log.Fatal(err)
	}
	want := commfree.SequentialReference(comp.Nest)
	if n := commfree.Mismatches(rep.Final, want); n != 0 {
		log.Fatalf("result differs from sequential execution in %d elements", n)
	}
	fmt.Printf("\nexecuted on %d processors: %d inter-node messages, result identical to sequential (%d elements)\n",
		len(rep.IterationsPerNode), rep.Machine.InterNodeMessages(), len(want))
	fmt.Printf("per-processor workloads: %v iterations\n", rep.IterationsPerNode)
}
