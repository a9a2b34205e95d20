// Convolution demonstrates the duplicate-data strategy on a 1-D
// convolution — one of the scientific kernels the paper's UPPER project
// evaluates. The accumulation
//
//	for i = 1 to N
//	  for k = 1 to K
//	    Y[i] = Y[i] + X[i+k-1] * W[k]
//	  end
//	end
//
// is sequential under the non-duplicate strategy (the overlapping reads
// of X tie every output together), but duplicating the read-only X and W
// leaves only Y's accumulation chain, so every output element becomes an
// independent block.
package main

import (
	"fmt"
	"log"

	"commfree"
)

const src = `
for i = 1 to 12
  for k = 1 to 4
    Y[i] = Y[i] + X[i+k-1] * W[k]
  end
end
`

func main() {
	nest, err := commfree.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	// Non-duplicate: the shared X window forces a single block.
	nd, err := commfree.Partition(nest, commfree.NonDuplicate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-duplicate: Ψ = %s → %d block(s)\n", nd.Psi, nd.Iter.NumBlocks())

	// Duplicate: X and W are read-only (fully duplicable); Y keeps only
	// its accumulation direction (0,1).
	dup, err := commfree.Partition(nest, commfree.Duplicate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("duplicate:     Ψ = %s → %d block(s), one per output element\n",
		dup.Psi, dup.Iter.NumBlocks())
	fmt.Printf("  X copy factor: %.2f (overlapping windows replicated)\n", dup.DataPartition("X").CopyFactor)
	fmt.Printf("  W copy factor: %.2f (kernel broadcast to every block)\n", dup.DataPartition("W").CopyFactor)
	fmt.Printf("  Y copy factor: %.2f (each output owned by one block)\n", dup.DataPartition("Y").CopyFactor)

	if err := dup.Verify(); err != nil {
		log.Fatal("verify: ", err)
	}

	// Compile end-to-end on 4 processors and execute.
	comp, err := commfree.CompileNest(nest, commfree.Duplicate, 4)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := comp.Execute(commfree.TransputerCost())
	if err != nil {
		log.Fatal(err)
	}
	want := commfree.SequentialReference(nest)
	if n := commfree.Mismatches(rep.Final, want); n != 0 {
		log.Fatalf("result differs from sequential execution in %d elements", n)
	}
	fmt.Printf("\nexecuted on %d processors: workloads %v, inter-node messages %d, result identical to sequential\n",
		len(rep.IterationsPerNode), rep.IterationsPerNode, rep.Machine.InterNodeMessages())
	fmt.Println("\ntransformed loop:")
	fmt.Println(comp.Transformed)
}
