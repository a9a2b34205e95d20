package space

import (
	"math/rand"
	"slices"
	"testing"
)

// contains reports whether vector v lies in the subspace: v ∈ span(B)
// iff rank(B ∪ {v}) == rank(B).
func contains(s *Space, v []int64) bool {
	return Span(s.n, append(slices.Clip(s.basis), v)...).Dim() == s.Dim()
}

func dot(u, v []int64) int64 {
	var s int64
	for i := range u {
		s += u[i] * v[i]
	}
	return s
}

func TestZeroFullBasics(t *testing.T) {
	z := Zero(3)
	if z.Dim() != 0 || !z.IsZero() || z.Dim() == 3 || z.Ambient() != 3 {
		t.Errorf("Zero(3) wrong: dim=%d", z.Dim())
	}
	f := Full(3)
	if f.Dim() != 3 || f.IsZero() || f.Dim() != 3 {
		t.Errorf("Full(3) wrong: dim=%d", f.Dim())
	}
	if !z.SubspaceOf(f) || f.SubspaceOf(z) {
		t.Error("subspace relations wrong")
	}
}

func TestSpanDedupAndDim(t *testing.T) {
	// L1 partitioning space: span{(1,1)} ∪ span{(1,1)} = span{(1,1)}.
	s := Span(2, []int64{1, 1}, []int64{1, 1}, []int64{2, 2})
	if s.Dim() != 1 {
		t.Errorf("dim = %d, want 1", s.Dim())
	}
	if !contains(s, []int64{3, 3}) {
		t.Error("(3,3) should be in span{(1,1)}")
	}
	if contains(s, []int64{1, 0}) {
		t.Error("(1,0) should not be in span{(1,1)}")
	}
	// Zero vectors contribute nothing.
	s2 := Span(2, []int64{0, 0})
	if !s2.IsZero() {
		t.Errorf("span{0} dim = %d", s2.Dim())
	}
}

func TestSpanEquality(t *testing.T) {
	// Different generating sets, same space.
	a := Span(2, []int64{1, -1}, []int64{1, 1}) // = Q²
	b := Full(2)
	if !a.Equal(b) {
		t.Errorf("span{(1,-1),(1,1)} != Q²: %s vs %s", a, b)
	}
	// L2 nonduplicate partitioning space span{(1,-1),(1/2,1/2)} = Q²,
	// spanned by the particular solution's integer direction (1,1).
	c := Span(2, []int64{1, -1}, []int64{1, 1})
	if !c.Equal(Full(2)) {
		t.Errorf("L2 Ψ should be full, got %s", c)
	}
}

func TestUnion(t *testing.T) {
	// L5: Ψ_A ∪ Ψ_B ∪ Ψ_C = Q³ (sequential under non-duplicate strategy).
	psiA := Span(3, []int64{0, 1, 0})
	psiB := Span(3, []int64{1, 0, 0})
	psiC := Span(3, []int64{0, 0, 1})
	psi := psiA.Union(psiB).Union(psiC)
	if !psi.Equal(Full(3)) {
		t.Errorf("L5 Ψ should be Q³, got %s", psi)
	}
	// L5′ variant: span{(0,1,0)} ∪ span{(0,0,1)} has dim 2.
	psi2 := psiA.Union(psiC)
	if psi2.Dim() != 2 {
		t.Errorf("dim = %d, want 2", psi2.Dim())
	}
	if !psiA.SubspaceOf(psi2) || !psiC.SubspaceOf(psi2) {
		t.Error("union does not contain operands")
	}
	if psiB.SubspaceOf(psi2) {
		t.Error("(1,0,0) should not be in span{(0,1,0),(0,0,1)}")
	}
}

func TestOrthogonalComplementL4(t *testing.T) {
	// Section IV worked example: Ψ = span{(1,-1,1)};
	// Ker(Ψ) = span{(1,1,0),(-1,0,1)}.
	psi := Span(3, []int64{1, -1, 1})
	q := psi.OrthogonalComplement()
	if q.Dim() != 2 {
		t.Fatalf("dim Ker(Ψ) = %d, want 2", q.Dim())
	}
	if !contains(q, []int64{1, 1, 0}) || !contains(q, []int64{-1, 0, 1}) {
		t.Errorf("Ker(Ψ) = %s missing paper's basis vectors", q)
	}
	// Orthogonality of every basis pair.
	for _, u := range q.IntegerBasis() {
		if dot(u, []int64{1, -1, 1}) != 0 {
			t.Errorf("basis vector %v not orthogonal to (1,-1,1)", u)
		}
	}
	// Integer basis must be primitive.
	for _, v := range q.OrthogonalComplementIntegerBasis() {
		// complement of complement = original space; also gcd check
		g := int64(0)
		for _, x := range v {
			if x < 0 {
				x = -x
			}
			for x != 0 {
				g, x = x, g%x
			}
		}
		if g != 1 {
			t.Errorf("integer basis vector %v not primitive", v)
		}
	}
}

func TestOrthogonalComplementEdges(t *testing.T) {
	if !Zero(3).OrthogonalComplement().Equal(Full(3)) {
		t.Error("complement of {0} should be full")
	}
	if !Full(3).OrthogonalComplement().IsZero() {
		t.Error("complement of full should be {0}")
	}
}

func TestIntegerBasisPrimitive(t *testing.T) {
	// Basis with fractional RREF entries: span{(2,1)} has RREF (1,1/2),
	// integer basis must be (2,1).
	s := Span(2, []int64{2, 1})
	ib := s.IntegerBasis()
	if len(ib) != 1 || ib[0][0] != 2 || ib[0][1] != 1 {
		t.Errorf("IntegerBasis = %v, want [(2,1)]", ib)
	}
}

func TestString(t *testing.T) {
	if got := Zero(2).String(); got != "span{}" {
		t.Errorf("String = %q", got)
	}
	if got := Span(2, []int64{1, 1}).String(); got != "span{(1,1)}" {
		t.Errorf("String = %q", got)
	}
}

func TestPropComplementProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(3)
		k := rnd.Intn(n + 1)
		vecs := make([][]int64, k)
		for i := range vecs {
			vecs[i] = make([]int64, n)
			for j := range vecs[i] {
				vecs[i][j] = rnd.Int63n(9) - 4
			}
		}
		s := Span(n, vecs...)
		c := s.OrthogonalComplement()
		// Dimension formula.
		if s.Dim()+c.Dim() != n {
			t.Fatalf("dim %d + codim %d != %d", s.Dim(), c.Dim(), n)
		}
		// Every pair orthogonal.
		for _, u := range s.IntegerBasis() {
			for _, v := range c.IntegerBasis() {
				if dot(u, v) != 0 {
					t.Fatalf("non-orthogonal pair %v · %v", u, v)
				}
			}
		}
		// Double complement is the original space.
		if !c.OrthogonalComplement().Equal(s) {
			t.Fatalf("double complement mismatch for %s", s)
		}
	}
}

func TestPropUnionMonotone(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(3)
		mk := func() *Space {
			k := rnd.Intn(n)
			vecs := make([][]int64, k)
			for i := range vecs {
				vecs[i] = make([]int64, n)
				for j := range vecs[i] {
					vecs[i][j] = rnd.Int63n(7) - 3
				}
			}
			return Span(n, vecs...)
		}
		a, b := mk(), mk()
		u := a.Union(b)
		if !a.SubspaceOf(u) || !b.SubspaceOf(u) {
			t.Fatal("union not containing operands")
		}
		if !u.Equal(b.Union(a)) {
			t.Fatal("union not commutative")
		}
		if u.Dim() > a.Dim()+b.Dim() {
			t.Fatal("union dim exceeds sum")
		}
		if u.Dim() < a.Dim() || u.Dim() < b.Dim() {
			t.Fatal("union dim below operand")
		}
	}
}

// TestComplementBasisIsALatticeBasis: Q is the complement's echelon
// basis when that already spans Ψ^⊥ ∩ Zⁿ — one row, unit pivots, or
// Smith invariants 1 — and the Hermite basis of that lattice otherwise.
func TestComplementBasisIsALatticeBasis(t *testing.T) {
	for _, c := range []struct {
		psi  [][]int64
		want [][]int64
	}{
		{[][]int64{{1, 1, 2}}, [][]int64{{1, 1, -1}, {0, 2, -1}}}, // echelon (2,0,−1), (0,2,−1)
		{[][]int64{{1, 1, 1}}, [][]int64{{1, 0, -1}, {0, 1, -1}}}, // unit pivots
		{[][]int64{{5, 2}}, [][]int64{{2, -5}}},                   // one row
		{[][]int64{{2, 4, 1}}, [][]int64{{1, 0, -2}, {0, 1, -4}}}, // unit pivots
		{[][]int64{{3, 0, 5}}, [][]int64{{5, 0, -3}, {0, 1, 0}}},  // pivot 5, invariants 1
		{[][]int64{{1, 2, 3}, {0, 1, 1}}, [][]int64{{1, 1, -1}}},  // one row
		{[][]int64{{4, 2, 5}}, [][]int64{{1, 3, -2}, {0, 5, -2}}}, // echelon (5,0,−4), (0,5,−2)
	} {
		got := Span(len(c.psi[0]), c.psi...).OrthogonalComplementIntegerBasis()
		if len(got) != len(c.want) {
			t.Fatalf("Ψ = %v: Q = %v, want %v", c.psi, got, c.want)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != c.want[i][j] {
					t.Errorf("Ψ = %v: Q = %v, want %v", c.psi, got, c.want)
				}
			}
		}
	}
}
