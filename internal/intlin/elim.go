package intlin

// eliminate reduces a in place by fraction-free (Bareiss) Gauss–Jordan
// elimination over its first cols columns: pivots are taken left to
// right, each the first nonzero entry at or below the current row, and
// every other row i becomes (p·rowᵢ − a_ic·row_p)/p_prev, a division that
// is exact because every entry stays a minor of a. On return every pivot
// entry equals the last pivot d (1 when there is none), so the leading
// rows are d times the reduced row echelon form, and an augmented right
// block [a | B] becomes d·A⁻¹·B when the left block A is nonsingular. It
// returns the pivot columns, d, and det = ±d by the parity of the row
// swaps — A's determinant when A is square and nonsingular.
func eliminate(a *Mat, cols int) (pivots []int, d, det int64) {
	d = 1
	sign := int64(1)
	for c := 0; c < cols && len(pivots) < a.Rows; c++ {
		r := len(pivots)
		p := r
		for p < a.Rows && a.At(p, c) == 0 {
			p++
		}
		if p == a.Rows {
			continue
		}
		if p != r {
			swapRows(a, r, p)
			sign = -sign
		}
		piv := a.At(r, c)
		for i := 0; i < a.Rows; i++ {
			if i == r {
				continue
			}
			f := a.At(i, c)
			for j := 0; j < a.Cols; j++ {
				a.Set(i, j, Quo(Add(Mul(piv, a.At(i, j)), Neg(Mul(f, a.At(r, j)))), d))
			}
		}
		d = piv
		pivots = append(pivots, c)
	}
	return pivots, d, Mul(sign, d)
}

// RREF returns the reduced row echelon form of m as integer rows, one per
// pivot, each primitive (entry gcd 1) with a positive pivot, and the
// pivot columns. Divided by their pivots the rows are the rational RREF,
// so the integer form is unique too: two matrices with one row space
// have equal RREFs. m is not modified.
func (m *Mat) RREF() (*Mat, []int) {
	a := m.Clone()
	pivots, _, _ := eliminate(a, a.Cols)
	a.Rows = len(pivots)
	a.A = a.A[:a.Rows*a.Cols]
	for i := range pivots {
		row := a.Row(i)
		copy(row, Primitive(row))
	}
	return a, pivots
}

// Rank returns the rank of m.
func (m *Mat) Rank() int {
	pivots, _, _ := eliminate(m.Clone(), m.Cols)
	return len(pivots)
}

// NullSpace returns a basis of {x : m·x = 0} as primitive integer
// vectors, one per free column in increasing order (none when the kernel
// is trivial): x_free = d and x_pivot = −(its row's entry at free), the
// free-variable basis scaled by the common pivot d.
func (m *Mat) NullSpace() [][]int64 {
	a := m.Clone()
	pivots, d, _ := eliminate(a, a.Cols)
	var basis [][]int64
	for free, r := 0, 0; free < a.Cols; free++ {
		if r < len(pivots) && pivots[r] == free {
			r++
			continue
		}
		v := make([]int64, a.Cols)
		v[free] = d
		for row, col := range pivots {
			v[col] = Neg(a.At(row, free))
		}
		basis = append(basis, Primitive(v))
	}
	return basis
}

// Solve finds the solution x = num/den of m·x = b whose free variables
// are zero, in lowest terms (den > 0, gcd(num, den) = 1); ok is false
// when the system is inconsistent.
func (m *Mat) Solve(b []int64) (num []int64, den int64, ok bool) {
	a := NewMat(m.Rows, m.Cols+1)
	for i := 0; i < m.Rows; i++ {
		copy(a.Row(i), m.Row(i))
		a.Set(i, m.Cols, b[i])
	}
	pivots, d, _ := eliminate(a, m.Cols)
	for i := len(pivots); i < a.Rows; i++ {
		if a.At(i, m.Cols) != 0 {
			return nil, 0, false
		}
	}
	num = make([]int64, m.Cols+1)
	for row, col := range pivots {
		num[col] = a.At(row, m.Cols)
	}
	num[m.Cols] = d
	if d < 0 {
		for j := range num {
			num[j] = Neg(num[j])
		}
	}
	g := GCDVec(num)
	for j := range num {
		num[j] /= g
	}
	return num[:m.Cols], num[m.Cols], true
}

// Inverse returns the adjugate and the determinant of a square m, so
// m⁻¹ = adj/det; det is 0 (and adj nil) when m is singular.
func (m *Mat) Inverse() (adj *Mat, det int64) {
	n := m.Rows
	if m.Cols != n {
		return nil, 0
	}
	a := NewMat(n, 2*n)
	for i := 0; i < n; i++ {
		copy(a.Row(i), m.Row(i))
		a.Set(i, n+i, 1)
	}
	pivots, d, det := eliminate(a, n)
	if len(pivots) < n {
		return nil, 0
	}
	adj = NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := a.At(i, n+j)
			if det != d {
				v = Neg(v)
			}
			adj.Set(i, j, v)
		}
	}
	return adj, det
}

// UnimodularInverse returns the integer matrix m⁻¹ when m is square
// with det ±1, and nil otherwise.
func (m *Mat) UnimodularInverse() *Mat {
	adj, det := m.Inverse()
	if det != 1 && det != -1 {
		return nil
	}
	for i := range adj.A {
		adj.A[i] = Mul(det, adj.A[i])
	}
	return adj
}

// Det returns the determinant of a square m.
func (m *Mat) Det() int64 {
	pivots, _, det := eliminate(m.Clone(), m.Cols)
	if len(pivots) < m.Rows {
		return 0
	}
	return det
}
