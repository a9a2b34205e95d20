// Stencil walks through Section IV's worked example: the 3-D stencil loop
// L4 is partitioned along its flow-dependence direction (1,-1,1),
// transformed into two forall loops plus one sequential loop (the paper's
// L4′), and mapped onto a 2×2 processor grid with perfectly balanced
// workloads (the paper's Fig. 10).
package main

import (
	"fmt"
	"log"

	"commfree"
)

const src = `
for i1 = 1 to 4
  for i2 = 1 to 4
    for i3 = 1 to 4
      A[i1,i2,i3] = A[i1-1,i2+1,i3-1] + B[i1,i2,i3]
    end
  end
end
`

func main() {
	comp, err := commfree.Compile(src, commfree.NonDuplicate, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("loop L4 partitioning space:", comp.Partition.Psi)
	fmt.Printf("blocks: %d along the dependence direction, forall dimension %d\n\n",
		comp.Partition.Iter.NumBlocks(), comp.Partition.ParallelismDim())

	fmt.Println("transformed loop (the paper's L4′):")
	fmt.Println(comp.Transformed)

	fmt.Println("processor assignment (cyclic mod distribution):")
	fmt.Print(comp.Assignment.Summary())

	if err := comp.Verify(); err != nil {
		log.Fatal("verify: ", err)
	}

	rep, err := comp.Execute(commfree.TransputerCost())
	if err != nil {
		log.Fatal(err)
	}
	want := commfree.SequentialReference(comp.Nest)
	if n := commfree.Mismatches(rep.Final, want); n != 0 {
		log.Fatalf("result differs from sequential execution in %d elements", n)
	}
	fmt.Printf("\nexecuted: workloads %v (Fig. 10's 16/16/16/16), zero communication, result identical to sequential\n",
		rep.IterationsPerNode)
}
