package loop

// This file encodes the worked examples of the paper — loops L1 through L5
// — so that analyses, figures, and benchmarks all operate on exactly the
// loops the paper evaluates.

// L1 is Example 1:
//
//	for i = 1 to 4
//	  for j = 1 to 4
//	    S1: A[2i,j]   := C[i,j]*7
//	    S2: B[j,i+1]  := A[2i-2,j-1] + C[i-1,j-1]
func L1() *Nest {
	return &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 4)},
			{Name: "j", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 4)},
		},
		Body: []*Statement{
			{
				Label: "S1",
				Write: Ref{Array: "A", H: [][]int64{{2, 0}, {0, 1}}, Offset: []int64{0, 0}},
				Reads: []Ref{
					{Array: "C", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
				},
				Tree: &ExprTree{Op: ExprMul, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprConst, Val: 7}},
			},
			{
				Label: "S2",
				Write: Ref{Array: "B", H: [][]int64{{0, 1}, {1, 0}}, Offset: []int64{0, 1}},
				Reads: []Ref{
					{Array: "A", H: [][]int64{{2, 0}, {0, 1}}, Offset: []int64{-2, -1}},
					{Array: "C", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{-1, -1}},
				},
				Tree: &ExprTree{Op: ExprAdd, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprRead, Arg: 1}},
			},
		},
	}
}

// L2 is Example 2:
//
//	for i = 1 to 4
//	  for j = 1 to 4
//	    S1: A[i+j,i+j]     := B[2i,j] * A[i+j-1,i+j]
//	    S2: A[i+j-1,i+j-1] := B[2i-1,j-1] / 3
func L2() *Nest {
	hA := [][]int64{{1, 1}, {1, 1}}
	hB := [][]int64{{2, 0}, {0, 1}}
	return &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 4)},
			{Name: "j", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 4)},
		},
		Body: []*Statement{
			{
				Label: "S1",
				Write: Ref{Array: "A", H: hA, Offset: []int64{0, 0}},
				Reads: []Ref{
					{Array: "B", H: hB, Offset: []int64{0, 0}},
					{Array: "A", H: hA, Offset: []int64{-1, 0}},
				},
				Tree: &ExprTree{Op: ExprMul, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprRead, Arg: 1}},
			},
			{
				Label: "S2",
				Write: Ref{Array: "A", H: hA, Offset: []int64{-1, -1}},
				Reads: []Ref{
					{Array: "B", H: hB, Offset: []int64{-1, -1}},
				},
				Tree: &ExprTree{Op: ExprDiv, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprConst, Val: 3}},
			},
		},
	}
}

// L3 is Example 3:
//
//	for i = 1 to 4
//	  for j = 1 to 4
//	    S1: A[i,j]   := A[i-1,j-1] * 3
//	    S2: A[i,j-1] := A[i+1,j-2] / 7
func L3() *Nest {
	hA := [][]int64{{1, 0}, {0, 1}}
	return &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 4)},
			{Name: "j", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 4)},
		},
		Body: []*Statement{
			{
				Label: "S1",
				Write: Ref{Array: "A", H: hA, Offset: []int64{0, 0}},
				Reads: []Ref{
					{Array: "A", H: hA, Offset: []int64{-1, -1}},
				},
				Tree: &ExprTree{Op: ExprMul, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprConst, Val: 3}},
			},
			{
				Label: "S2",
				Write: Ref{Array: "A", H: hA, Offset: []int64{0, -1}},
				Reads: []Ref{
					{Array: "A", H: hA, Offset: []int64{1, -2}},
				},
				Tree: &ExprTree{Op: ExprDiv, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprConst, Val: 7}},
			},
		},
	}
}

// L4 is Example 4:
//
//	for i1 = 1 to 4
//	  for i2 = 1 to 4
//	    for i3 = 1 to 4
//	      A[i1,i2,i3] := A[i1-1,i2+1,i3-1] + B[i1,i2,i3]
func L4() *Nest {
	hA := [][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	return &Nest{
		Levels: []Level{
			{Name: "i1", Lower: ConstAffine(3, 1), Upper: ConstAffine(3, 4)},
			{Name: "i2", Lower: ConstAffine(3, 1), Upper: ConstAffine(3, 4)},
			{Name: "i3", Lower: ConstAffine(3, 1), Upper: ConstAffine(3, 4)},
		},
		Body: []*Statement{
			{
				Label: "S1",
				Write: Ref{Array: "A", H: hA, Offset: []int64{0, 0, 0}},
				Reads: []Ref{
					{Array: "A", H: hA, Offset: []int64{-1, 1, -1}},
					{Array: "B", H: hA, Offset: []int64{0, 0, 0}},
				},
				Tree: &ExprTree{Op: ExprAdd, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprRead, Arg: 1}},
			},
		},
	}
}

// L5 is the matrix-multiplication loop of Section IV with problem size M:
//
//	for i = 1 to M
//	  for j = 1 to M
//	    for k = 1 to M
//	      C[i,j] := C[i,j] + A[i,k] * B[k,j]
func L5(m int64) *Nest {
	return &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(3, 1), Upper: ConstAffine(3, m)},
			{Name: "j", Lower: ConstAffine(3, 1), Upper: ConstAffine(3, m)},
			{Name: "k", Lower: ConstAffine(3, 1), Upper: ConstAffine(3, m)},
		},
		Body: []*Statement{
			{
				Label: "S1",
				Write: Ref{Array: "C", H: [][]int64{{1, 0, 0}, {0, 1, 0}}, Offset: []int64{0, 0}},
				Reads: []Ref{
					{Array: "C", H: [][]int64{{1, 0, 0}, {0, 1, 0}}, Offset: []int64{0, 0}},
					{Array: "A", H: [][]int64{{1, 0, 0}, {0, 0, 1}}, Offset: []int64{0, 0}},
					{Array: "B", H: [][]int64{{0, 0, 1}, {0, 1, 0}}, Offset: []int64{0, 0}},
				},
				Tree: &ExprTree{Op: ExprAdd, L: &ExprTree{Op: ExprRead, Arg: 0},
					R: &ExprTree{Op: ExprMul, L: &ExprTree{Op: ExprRead, Arg: 1}, R: &ExprTree{Op: ExprRead, Arg: 2}}},
			},
		},
	}
}
