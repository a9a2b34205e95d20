package deps_test

import (
	"fmt"

	"commfree/internal/deps"
	"commfree/internal/loop"
)

// ExampleAnalyze shows the dependence analysis of the paper's loop L1:
// one flow dependence on array A with distance (1,1), an input dependence
// on C, nothing on B.
func ExampleAnalyze() {
	a, err := deps.Analyze(loop.L1())
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, d := range a.AllDependences() {
		fmt.Printf("%s: %s, distance %v\n", d.Array, d.Kind, d.Distance)
	}
	fmt.Println("A fully duplicable:", a.FullyDuplicable("A"))
	fmt.Println("C fully duplicable:", a.FullyDuplicable("C"))
	// Output:
	// A: flow, distance [1 1]
	// C: input, distance [1 1]
	// A fully duplicable: false
	// C fully duplicable: true
}

// ExampleAnalysis_ReferenceGraph prints the data reference graph of loop
// L3's array A — the paper's Fig. 7.
func ExampleAnalysis_ReferenceGraph() {
	a, _ := deps.Analyze(loop.L3())
	fmt.Print(a.ReferenceGraph("A"))
	// Output:
	// G^A:
	//   w1 = S1 write A[i1,i2]
	//   w2 = S2 write A[i1,i2 - 1]
	//   r1 = S1 read A[i1 - 1,i2 - 1]
	//   r2 = S2 read A[i1 + 1,i2 - 2]
	//   w1 --δo--> w2  t=[0 1]
	//   w1 --δf--> r1  t=[1 1]
	//   w2 --δf--> r1  t=[1 0]
	//   r2 --δa--> w1  t=[1 -2]
	//   r2 --δa--> w2  t=[1 -1]
	//   r2 --δi--> r1  t=[2 -1]
}
