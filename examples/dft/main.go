// DFT demonstrates communication-free partitioning of a naive discrete
// Fourier transform — another UPPER-project kernel. The loop
//
//	for k = 1 to N
//	  for n = 1 to N
//	    R[k] = R[k] + X[n] * T[k,n]
//	  end
//	end
//
// accumulates output bin R[k] over all inputs. The input vector X is read
// by every k (fully duplicable); the twiddle matrix T is touched once per
// iteration; R carries the accumulation flow dependence along n. The
// duplicate strategy therefore exposes one block per output bin.
package main

import (
	"fmt"
	"log"

	"commfree"
)

const src = `
for k = 1 to 16
  for n = 1 to 16
    R[k] = R[k] + X[n] * T[k,n]
  end
end
`

func main() {
	nest, err := commfree.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	a, err := commfree.Analyze(nest)
	if err != nil {
		log.Fatal(err)
	}
	for _, arr := range nest.Arrays() {
		fmt.Printf("array %s: fully duplicable = %v\n", arr, a.FullyDuplicable(arr))
	}

	dup, err := commfree.Partition(nest, commfree.Duplicate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nduplicate strategy: Ψ = %s → %d blocks (one per output bin)\n",
		dup.Psi, dup.Iter.NumBlocks())
	fmt.Printf("  X copy factor: %.2f (input broadcast)\n", dup.DataPartition("X").CopyFactor)
	fmt.Printf("  T copy factor: %.2f (each twiddle row used once)\n", dup.DataPartition("T").CopyFactor)
	if err := dup.Verify(); err != nil {
		log.Fatal("verify: ", err)
	}

	// Compare with the Ramanujam–Sadayappan hyperplane baseline: the
	// accumulation makes the loop non-For-all, so the baseline does not
	// apply, while the duplicate strategy runs it 16-wide.
	h, err := commfree.Hyperplane(nest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbaseline: %s\n", h)

	comp, err := commfree.CompileNest(nest, commfree.Duplicate, 8)
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
	fmt.Printf("executed on %d processors: workloads %v, zero communication, result identical to sequential\n",
		len(rep.IterationsPerNode), rep.IterationsPerNode)
}
