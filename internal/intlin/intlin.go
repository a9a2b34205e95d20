// Package intlin is the module's one exact arithmetic core: int64
// matrices, fraction-free (Bareiss) elimination — reduced row echelon
// form, rank, null space, rational solve, inverse, determinant — the
// Smith normal form and the complete integer solution of linear
// Diophantine systems A·x = b. Every operation that can leave int64 goes
// through the checked helpers of checked.go, which panic with
// ErrOverflow.
//
// The dependence analyzer needs to decide whether two iterations ī₁, ī₂ of
// a loop can touch the same array element, i.e. whether H·t̄ = r̄ has an
// *integer* solution t̄ = ī₂ − ī₁ inside the iteration-difference box. Over
// the rationals that is a plain linear solve; over the integers it requires
// lattice reasoning, which the Smith normal form provides in closed form.
package intlin

import (
	"fmt"
	"math"
)

// ExtGCD returns g = gcd(a, b) ≥ 0 and Bézout coefficients x, y with
// a·x + b·y = g.
func ExtGCD(a, b int64) (g, x, y int64) {
	oldR, r := a, b
	oldS, s := int64(1), int64(0)
	oldT, t := int64(0), int64(1)
	for r != 0 {
		q := oldR / r
		oldR, r = r, oldR-q*r
		oldS, s = s, oldS-q*s
		oldT, t = t, oldT-q*t
	}
	if oldR < 0 {
		oldR, oldS, oldT = Neg(oldR), Neg(oldS), Neg(oldT)
	}
	return oldR, oldS, oldT
}

// GCDVec returns the gcd of all entries (1 if the vector is all zeros, so
// it is always a safe divisor).
func GCDVec(v []int64) int64 {
	g := int64(0)
	for _, x := range v {
		g0, _, _ := ExtGCD(g, x)
		g = g0
	}
	if g == 0 {
		return 1
	}
	return g
}

// Primitive divides v by the gcd of its entries, returning a fresh slice.
// The first nonzero entry is made positive so the representation is
// canonical up to sign.
func Primitive(v []int64) []int64 {
	g := GCDVec(v)
	out := make([]int64, len(v))
	neg := false
	for _, x := range v {
		if x != 0 {
			neg = x < 0
			break
		}
	}
	for i, x := range v {
		out[i] = x / g
		if neg {
			out[i] = Neg(out[i])
		}
	}
	return out
}

// Mat is a dense integer matrix (row-major).
type Mat struct {
	Rows, Cols int
	A          []int64
}

// NewMat returns a zero rows×cols integer matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, A: make([]int64, rows*cols)}
}

// FromRows builds a Mat from integer rows (which must be equal length).
func FromRows(rows [][]int64) *Mat {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := NewMat(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Errorf("intlin: ragged row %d", i))
		}
		copy(m.A[i*c:(i+1)*c], row)
	}
	return m
}

// IdentityMat returns the n×n identity.
func IdentityMat(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) int64 { return m.A[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v int64) { m.A[i*m.Cols+j] = v }

// Clone deep-copies m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.A, m.A)
	return c
}

// MulVec returns m·x.
func (m *Mat) MulVec(x []int64) []int64 {
	if len(x) != m.Cols {
		panic(fmt.Errorf("intlin: vector length %d != cols %d", len(x), m.Cols))
	}
	out := make([]int64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var sum int64
		for j := 0; j < m.Cols; j++ {
			sum = Add(sum, Mul(m.At(i, j), x[j]))
		}
		out[i] = sum
	}
	return out
}

// SNF is a Smith normal form decomposition U·A·V = S where U (r×r) and
// V (c×c) are unimodular and S is diagonal with S[i] | S[i+1].
type SNF struct {
	S    *Mat // diagonal matrix, same shape as A
	U    *Mat // row transform, Rows×Rows
	V    *Mat // column transform, Cols×Cols
	Rank int  // number of nonzero diagonal entries
}

// SmithNormalForm computes the Smith normal form of A. A is not modified.
func SmithNormalForm(a *Mat) *SNF {
	s := a.Clone()
	u := IdentityMat(a.Rows)
	v := IdentityMat(a.Cols)
	n := min(s.Rows, s.Cols)

	for k := 0; k < n; k++ {
		if !pivotToCorner(s, u, v, k) {
			// Remaining submatrix is all zeros.
			break
		}
		// Clear row and column k using Euclidean steps until only the
		// pivot remains. Interleave because clearing one can dirty the
		// other when the pivot changes.
		for {
			again := false
			// Clear column below pivot.
			for i := k + 1; i < s.Rows; i++ {
				if s.At(i, k) == 0 {
					continue
				}
				reduceRows(s, u, k, i)
				again = true
			}
			// Clear row right of pivot.
			for j := k + 1; j < s.Cols; j++ {
				if s.At(k, j) == 0 {
					continue
				}
				reduceCols(s, v, k, j)
				again = true
			}
			// Check fully cleared.
			clear := true
			for i := k + 1; i < s.Rows; i++ {
				if s.At(i, k) != 0 {
					clear = false
				}
			}
			for j := k + 1; j < s.Cols; j++ {
				if s.At(k, j) != 0 {
					clear = false
				}
			}
			if clear {
				break
			}
			if !again {
				break
			}
		}
		// Ensure divisibility s[k] | s[i,j] for the trailing block: if not,
		// add the offending row to row k and restart the clearing for k.
		if fixDivisibility(s, u, k) {
			k--
			continue
		}
	}
	// Make diagonal entries nonnegative.
	for k := 0; k < n; k++ {
		if s.At(k, k) < 0 {
			for j := 0; j < s.Cols; j++ {
				s.Set(k, j, Neg(s.At(k, j)))
			}
			for j := 0; j < u.Cols; j++ {
				u.Set(k, j, Neg(u.At(k, j)))
			}
		}
	}
	rank := 0
	for k := 0; k < n; k++ {
		if s.At(k, k) != 0 {
			rank++
		}
	}
	return &SNF{S: s, U: u, V: v, Rank: rank}
}

// pivotToCorner moves a nonzero entry of the trailing submatrix to (k, k).
// Returns false if the submatrix is entirely zero.
func pivotToCorner(s, u, v *Mat, k int) bool {
	// Pick the entry with the smallest absolute value for faster
	// termination of the Euclidean reduction.
	bi, bj := -1, -1
	var best int64 = math.MaxInt64
	for i := k; i < s.Rows; i++ {
		for j := k; j < s.Cols; j++ {
			a := Abs(s.At(i, j))
			if a != 0 && a < best {
				best, bi, bj = a, i, j
			}
		}
	}
	if bi < 0 {
		return false
	}
	swapRows(s, k, bi)
	swapRows(u, k, bi)
	swapCols(s, k, bj)
	swapCols(v, k, bj)
	return true
}

// reduceRows performs a unimodular row operation pair on rows k and i to
// replace (s[k,k], s[i,k]) with (gcd, 0). When the pivot already divides
// the target, a pure elimination is used so row k is left untouched —
// the Bézout pair would otherwise rewrite row k (e.g. flip its sign for a
// negative pivot) and the interleaved row/column clearing could cycle
// forever without shrinking the pivot.
func reduceRows(s, u *Mat, k, i int) {
	a, b := s.At(k, k), s.At(i, k)
	if a != 0 && b%a == 0 {
		f := b / a
		applyRowPair(s, k, i, 1, 0, -f, 1)
		applyRowPair(u, k, i, 1, 0, -f, 1)
		return
	}
	g, x, y := ExtGCD(a, b)
	// [x y; -b/g a/g] is unimodular with det = (x·a + y·b)/g = 1.
	p, q := x, y
	r0, s0 := Neg(b/g), a/g
	applyRowPair(s, k, i, p, q, r0, s0)
	applyRowPair(u, k, i, p, q, r0, s0)
}

// reduceCols is the column analogue of reduceRows for columns k and j.
func reduceCols(s, v *Mat, k, j int) {
	a, b := s.At(k, k), s.At(k, j)
	if a != 0 && b%a == 0 {
		f := b / a
		applyColPair(s, k, j, 1, 0, -f, 1)
		applyColPair(v, k, j, 1, 0, -f, 1)
		return
	}
	g, x, y := ExtGCD(a, b)
	p, q := x, y
	r0, s0 := Neg(b/g), a/g
	applyColPair(s, k, j, p, q, r0, s0)
	applyColPair(v, k, j, p, q, r0, s0)
}

// applyRowPair sets rows (k, i) to (p·rowK + q·rowI, r·rowK + s·rowI).
func applyRowPair(m *Mat, k, i int, p, q, r, s int64) {
	for j := 0; j < m.Cols; j++ {
		a, b := m.At(k, j), m.At(i, j)
		m.Set(k, j, Add(Mul(p, a), Mul(q, b)))
		m.Set(i, j, Add(Mul(r, a), Mul(s, b)))
	}
}

// applyColPair sets columns (k, j) to (p·colK + q·colJ, r·colK + s·colJ).
func applyColPair(m *Mat, k, j int, p, q, r, s int64) {
	for i := 0; i < m.Rows; i++ {
		a, b := m.At(i, k), m.At(i, j)
		m.Set(i, k, Add(Mul(p, a), Mul(q, b)))
		m.Set(i, j, Add(Mul(r, a), Mul(s, b)))
	}
}

// fixDivisibility checks s[k,k] divides every entry of the trailing block;
// if some entry fails, its row is added to row k and true is returned so
// the caller can redo the elimination at k.
func fixDivisibility(s, u *Mat, k int) bool {
	d := s.At(k, k)
	if d == 0 {
		return false
	}
	for i := k + 1; i < s.Rows; i++ {
		for j := k + 1; j < s.Cols; j++ {
			if s.At(i, j)%d != 0 {
				addRow(s, k, i) // row k += row i
				addRow(u, k, i)
				return true
			}
		}
	}
	return false
}

func addRow(m *Mat, dst, src int) {
	for j := 0; j < m.Cols; j++ {
		m.Set(dst, j, Add(m.At(dst, j), m.At(src, j)))
	}
}

func swapRows(m *Mat, i, j int) {
	if i == j {
		return
	}
	for k := 0; k < m.Cols; k++ {
		m.A[i*m.Cols+k], m.A[j*m.Cols+k] = m.A[j*m.Cols+k], m.A[i*m.Cols+k]
	}
}

func swapCols(m *Mat, i, j int) {
	if i == j {
		return
	}
	for k := 0; k < m.Rows; k++ {
		m.A[k*m.Cols+i], m.A[k*m.Cols+j] = m.A[k*m.Cols+j], m.A[k*m.Cols+i]
	}
}

// DiophantineSolution is the complete integer solution set of A·x = b:
// x = Particular + Σ cᵢ·KernelBasis[i] for integer cᵢ.
type DiophantineSolution struct {
	Particular  []int64
	KernelBasis [][]int64
}

// SolveDiophantine returns the complete integer solution of A·x = b, or
// (nil, false) if no integer solution exists.
func SolveDiophantine(a *Mat, b []int64) (*DiophantineSolution, bool) {
	if len(b) != a.Rows {
		panic(fmt.Errorf("intlin: rhs length %d != rows %d", len(b), a.Rows))
	}
	snf := SmithNormalForm(a)
	// A = U⁻¹ S V⁻¹, so A x = b ⇔ S (V⁻¹ x) = U b. Let y = V⁻¹x, c = U b.
	c := snf.U.MulVec(b)
	n := a.Cols
	y := make([]int64, n)
	for i := 0; i < a.Rows; i++ {
		var d int64
		if i < min(a.Rows, a.Cols) {
			d = snf.S.At(i, i)
		}
		if d == 0 {
			if c[i] != 0 {
				return nil, false // inconsistent over Q already
			}
			continue
		}
		if c[i]%d != 0 {
			return nil, false // rationally consistent but not integrally
		}
		if i < n {
			y[i] = c[i] / d
		}
	}
	// x = V y.
	x := snf.V.MulVec(y)
	// Kernel basis: columns of V corresponding to zero diagonal entries.
	var kernel [][]int64
	for j := snf.Rank; j < n; j++ {
		col := make([]int64, n)
		for i := 0; i < n; i++ {
			col[i] = snf.V.At(i, j)
		}
		kernel = append(kernel, col)
	}
	return &DiophantineSolution{Particular: x, KernelBasis: kernel}, true
}
