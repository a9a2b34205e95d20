// Autoselect demonstrates cost-based strategy selection: the selector
// prices every allocation alternative (Theorems 1–4 plus all selective
// duplication subsets) for a loop and a machine, picks the cheapest, and
// the program then compiles and executes the winner with automatically
// planned distribution (unicast/multicast/broadcast by consumer set).
package main

import (
	"fmt"
	"log"

	"commfree"
)

const src = `
# Matrix multiplication, M = 8.
for i = 1 to 8
  for j = 1 to 8
    for k = 1 to 8
      C[i,j] = C[i,j] + A[i,k] * B[k,j]
    end
  end
end
`

func main() {
	nest, err := commfree.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	cost := commfree.TransputerCost()

	// Price every alternative and compile the winning allocation
	// (possibly a selective subset) in one evaluation, then execute with
	// planned distribution.
	comp, all, err := commfree.CompileAuto(nest, 4, cost)
	if err != nil {
		log.Fatal(err)
	}
	best := all[0]
	fmt.Print(commfree.StrategyRanking(all))
	fmt.Printf("\nselected: %s (%d communication-free blocks)\n\n", best.Label, best.Blocks)
	rep, plan, err := comp.ExecutePlanned(cost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
	fmt.Printf("\nexecuted: %d inter-node messages, workloads %v\n",
		rep.Machine.InterNodeMessages(), rep.IterationsPerNode)

	want := commfree.SequentialReference(nest)
	if n := commfree.Mismatches(rep.Final, want); n != 0 {
		log.Fatalf("result differs from sequential execution in %d elements", n)
	}
	fmt.Printf("result identical to sequential execution (%d elements)\n", len(want))

	// Local memory economics of the winning allocation.
	fmt.Println("\nlocal memory layouts:")
	for _, l := range comp.Layouts() {
		fmt.Println(" ", l.Summary())
	}
}
