package transform_test

import (
	"fmt"

	"commfree/internal/loop"
	"commfree/internal/space"
	"commfree/internal/transform"
)

// ExampleTransformWithBasis reproduces the paper's Section IV worked
// example: loop L4 transformed with the basis {(1,1,0), (-1,0,1)} yields
// the forall form L4′ with the paper's exact bounds and extended
// statements.
func ExampleTransformWithBasis() {
	psi := space.Span(3, []int64{1, -1, 1})
	tr, err := transform.TransformWithBasis(loop.L4(), psi,
		[][]int64{{1, 1, 0}, {-1, 0, 1}})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(tr)
	// Output:
	// forall i1' = 2 to 8
	//   forall i2' = max(-3, -i1' + 2) to min(3, -i1' + 8)
	//     for i1 = max(1, i1' - 4, -i2' + 1) to min(4, i1' - 1, -i2' + 4)
	//       E1: i2 := i1' - i1
	//       E2: i3 := i2' + i1
	//       [loop body]
	//     end
	//   end-forall
	// end-forall
}

// ExampleTransformed_Visit counts blocks and iterations of the
// transformed loop.
func ExampleTransformed_Visit() {
	psi := space.Span(3, []int64{1, -1, 1})
	tr, _ := transform.Transform(loop.L4(), psi)
	iters := 0
	tr.Visit(func(_, _ []int64) { iters++ })
	fmt.Println(len(tr.ForallPoints()), "blocks,", iters, "iterations")
	// Output:
	// 37 blocks, 64 iterations
}
