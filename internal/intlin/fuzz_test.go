package intlin

import (
	"errors"
	"math/big"
	"slices"
	"testing"
)

// ratGaussJordan is the reference: textbook Gauss–Jordan over math/big
// rationals on the first cols columns of a, in place, pivoting on the
// first nonzero entry of each column like eliminate. It returns the pivot
// columns and the product of the pivots signed by the row swaps (the
// determinant when the left block is square and nonsingular).
func ratGaussJordan(a [][]*big.Rat, cols int) (pivots []int, det *big.Rat) {
	det = big.NewRat(1, 1)
	for c := 0; c < cols && len(pivots) < len(a); c++ {
		r := len(pivots)
		p := r
		for p < len(a) && a[p][c].Sign() == 0 {
			p++
		}
		if p == len(a) {
			continue
		}
		if p != r {
			a[p], a[r] = a[r], a[p]
			det.Neg(det)
		}
		piv := new(big.Rat).Set(a[r][c])
		det.Mul(det, piv)
		for j := range a[r] {
			a[r][j].Quo(a[r][j], piv)
		}
		for i := range a {
			if f := new(big.Rat).Set(a[i][c]); i != r && f.Sign() != 0 {
				for j := range a[i] {
					a[i][j].Sub(a[i][j], new(big.Rat).Mul(f, a[r][j]))
				}
			}
		}
		pivots = append(pivots, c)
	}
	return pivots, det
}

// ratRows copies m into big rationals, with extra columns appended to
// every row (the right-hand side or the identity).
func ratRows(m *Mat, extra func(i, j int) int64, nextra int) [][]*big.Rat {
	out := make([][]*big.Rat, m.Rows)
	for i := range out {
		out[i] = make([]*big.Rat, m.Cols+nextra)
		for j := range out[i] {
			if j < m.Cols {
				out[i][j] = big.NewRat(m.At(i, j), 1)
			} else {
				out[i][j] = big.NewRat(extra(i, j-m.Cols), 1)
			}
		}
	}
	return out
}

// frac is num/den as a big rational.
func frac(num, den int64) *big.Rat { return big.NewRat(num, den) }

// exact runs one operation of the core: it may refuse with ErrOverflow,
// any other panic fails the test.
func exact(t *testing.T, what string, op func()) (overflowed bool) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			if err, ok := p.(error); ok && errors.Is(err, ErrOverflow) {
				overflowed = true
				return
			}
			t.Fatalf("%s panicked: %v", what, p)
		}
	}()
	op()
	return false
}

// fuzzEntry decodes two bytes as a small entry, one near ±2^31.5 (whose
// products leave int64) or one near ±2^62.
func fuzzEntry(b0, b1 byte) int64 {
	v := int64(int8(b1))
	switch b0 % 3 {
	case 0:
		v %= 8
	case 1:
		v += 3037000500
	default:
		v += 1 << 62
	}
	if b0&4 != 0 {
		v = -v
	}
	return v
}

// FuzzExactCore holds rank, RREF, null space, solve, inverse and
// determinant to the math/big reference on matrices up to 4×4 with
// entries that are small or near the int64 edge: every result is the
// reference's, or the operation refuses with ErrOverflow.
func FuzzExactCore(f *testing.F) {
	f.Add([]byte{1, 1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3})
	f.Add([]byte{2, 2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10})
	f.Add([]byte{1, 1, 1, 0, 1, 0, 1, 255, 5, 1, 0, 1, 0, 1})
	f.Add([]byte{3, 3, 2, 0, 2, 1, 0, 3, 6, 2, 0, 1, 0, 5, 0, 0, 0, 7, 1, 0, 0, 0, 0, 1, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		rows, cols := 1+int(data[0]%4), 1+int(data[1]%4)
		data = data[2:]
		if len(data) < 2*(rows*cols+rows) {
			return
		}
		m := NewMat(rows, cols)
		for i := range m.A {
			m.A[i] = fuzzEntry(data[2*i], data[2*i+1])
		}
		b := make([]int64, rows)
		for i := range b {
			b[i] = fuzzEntry(data[2*(rows*cols+i)], data[2*(rows*cols+i)+1])
		}
		checkExactCore(t, m, b)
	})
}

func checkExactCore(t *testing.T, m *Mat, b []int64) {
	ref := ratRows(m, nil, 0)
	pivots, det := ratGaussJordan(ref, m.Cols)
	rank := len(pivots)

	var got int
	if !exact(t, "Rank", func() { got = m.Rank() }) && got != rank {
		t.Fatalf("Rank = %d, reference %d\n%v", got, rank, m.A)
	}
	var rref *Mat
	var rp []int
	if !exact(t, "RREF", func() { rref, rp = m.RREF() }) {
		if !slices.Equal(rp, pivots) {
			t.Fatalf("RREF pivots %v, reference %v\n%v", rp, pivots, m.A)
		}
		for i, c := range rp {
			if rref.At(i, c) <= 0 || GCDVec(rref.A[i*m.Cols:(i+1)*m.Cols]) != 1 {
				t.Fatalf("RREF row %d = %v is not primitive with a positive pivot", i, rref.A[i*m.Cols:(i+1)*m.Cols])
			}
			for j := 0; j < m.Cols; j++ {
				if frac(rref.At(i, j), rref.At(i, c)).Cmp(ref[i][j]) != 0 {
					t.Fatalf("RREF row %d = %v, reference %v\n%v", i, rref.A[i*m.Cols:(i+1)*m.Cols], ref[i], m.A)
				}
			}
		}
	}
	var ns [][]int64
	if !exact(t, "NullSpace", func() { ns = m.NullSpace() }) {
		if len(ns) != m.Cols-rank {
			t.Fatalf("NullSpace has %d vectors, reference nullity %d\n%v", len(ns), m.Cols-rank, m.A)
		}
		for _, v := range ns {
			for i := 0; i < m.Rows; i++ {
				dot := new(big.Int)
				for j, x := range v {
					dot.Add(dot, new(big.Int).Mul(big.NewInt(m.At(i, j)), big.NewInt(x)))
				}
				if dot.Sign() != 0 {
					t.Fatalf("NullSpace vector %v is not in the kernel of %v", v, m.A)
				}
			}
		}
		if len(ns) > 0 {
			if p, _ := ratGaussJordan(ratRows(FromRows(ns), nil, 0), m.Cols); len(p) != len(ns) {
				t.Fatalf("NullSpace vectors %v are dependent", ns)
			}
		}
	}

	aug := ratRows(m, func(i, _ int) int64 { return b[i] }, 1)
	apiv, _ := ratGaussJordan(aug, m.Cols)
	consistent := true
	for i := len(apiv); i < m.Rows; i++ {
		consistent = consistent && aug[i][m.Cols].Sign() == 0
	}
	var num []int64
	var den int64
	var ok bool
	if !exact(t, "Solve", func() { num, den, ok = m.Solve(b) }) {
		if ok != consistent {
			t.Fatalf("Solve ok = %t, reference %t\n%v b=%v", ok, consistent, m.A, b)
		}
		if ok {
			want := make([]*big.Rat, m.Cols)
			for j := range want {
				want[j] = new(big.Rat)
			}
			for r, c := range apiv {
				want[c] = aug[r][m.Cols]
			}
			if den <= 0 || GCDVec(append(slices.Clone(num), den)) != 1 {
				t.Fatalf("Solve = %v/%d is not in lowest terms", num, den)
			}
			for j := range want {
				if frac(num[j], den).Cmp(want[j]) != 0 {
					t.Fatalf("Solve = %v/%d, reference %v\n%v b=%v", num, den, want, m.A, b)
				}
			}
		}
	}

	if m.Rows != m.Cols {
		return
	}
	n := m.Rows
	if rank < n {
		det = new(big.Rat)
	}
	var d int64
	if !exact(t, "Det", func() { d = m.Det() }) && frac(d, 1).Cmp(det) != 0 {
		t.Fatalf("Det = %d, reference %s\n%v", d, det, m.A)
	}
	inv := ratRows(m, func(i, j int) int64 {
		if i == j {
			return 1
		}
		return 0
	}, n)
	ratGaussJordan(inv, n)
	var adj *Mat
	if !exact(t, "Inverse", func() { adj, d = m.Inverse() }) {
		if (adj == nil) != (rank < n) || frac(d, 1).Cmp(det) != 0 {
			t.Fatalf("Inverse det = %d (adj %v), reference det %s\n%v", d, adj, det, m.A)
		}
		for i := 0; adj != nil && i < n; i++ {
			for j := 0; j < n; j++ {
				if frac(adj.At(i, j), d).Cmp(inv[i][n+j]) != 0 {
					t.Fatalf("Inverse = %v/%d, reference row %d %v\n%v", adj.A, d, i, inv[i][n:], m.A)
				}
			}
		}
	}
}
