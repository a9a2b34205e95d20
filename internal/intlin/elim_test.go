package intlin

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func rows(r ...[]int64) *Mat { return FromRows(r) }

// isZero reports whether every entry of v is zero.
func isZero(v []int64) bool { return !slices.ContainsFunc(v, func(x int64) bool { return x != 0 }) }

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestBasicAccess(t *testing.T) {
	m := rows([]int64{1, 2}, []int64{3, 4})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("m = %v", m)
	}
	m.Set(1, 0, -7)
	if m.At(1, 0) != -7 {
		t.Errorf("after Set, At(1,0) = %d", m.At(1, 0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMat(2, 2)
	expectPanic(t, "At(2,0)", func() { m.At(2, 0) })
	expectPanic(t, "At(0,-1)", func() { m.At(0, -1) })
	expectPanic(t, "Set(-1,0)", func() { m.Set(-1, 0, 0) })
}

func TestConstructorPanics(t *testing.T) {
	expectPanic(t, "ragged FromRows", func() { FromRows([][]int64{{1, 2}, {3}}) })
}

func TestShapePanics(t *testing.T) {
	a := NewMat(2, 3)
	expectPanic(t, "mulvec mismatch", func() { a.MulVec([]int64{1}) })
	expectPanic(t, "solve rhs mismatch", func() { a.Solve([]int64{1}) })
}

func TestCloneIndependence(t *testing.T) {
	m := rows([]int64{1, 2}, []int64{3, 4})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("clone shares storage")
	}
}

func TestEmptyMatrices(t *testing.T) {
	if NewMat(0, 0).Rank() != 0 {
		t.Error("empty rank")
	}
	if FromRows(nil).Rows != 0 {
		t.Error("nil FromRows")
	}
	if got := NewMat(0, 3).NullSpace(); len(got) != 3 {
		t.Errorf("0×3 nullspace dim = %d", len(got))
	}
}

func TestRREFAndRank(t *testing.T) {
	cases := []struct {
		m    *Mat
		rank int
	}{
		{rows([]int64{1, 1}, []int64{1, 1}), 1},                // H_A from L2
		{rows([]int64{2, 0}, []int64{0, 1}), 2},                // H_A from L1
		{rows([]int64{0, 0}, []int64{0, 0}), 0},                // zero
		{rows([]int64{1, 2, 3}, []int64{2, 4, 6}), 1},          // dependent rows
		{rows([]int64{1, 0, 0}, []int64{0, 1, 0}), 2},          // wide
		{rows([]int64{1, 2}, []int64{3, 4}, []int64{5, 6}), 2}, // tall
	}
	for i, c := range cases {
		if got := c.m.Rank(); got != c.rank {
			t.Errorf("case %d: rank = %d, want %d", i, got, c.rank)
		}
	}
	r, pivots := rows([]int64{2, 4}, []int64{1, 3}).RREF()
	if !slices.Equal(r.A, []int64{1, 0, 0, 1}) || !slices.Equal(pivots, []int{0, 1}) {
		t.Errorf("RREF = %v, pivots %v", r.A, pivots)
	}
	// Rational RREF rows (1, 0, −1/2) and (0, 1, 3/4) are primitive
	// integer rows with positive pivots.
	r, pivots = rows([]int64{2, 0, -1}, []int64{-4, -4, -1}).RREF()
	if !slices.Equal(r.A, []int64{2, 0, -1, 0, 4, 3}) || !slices.Equal(pivots, []int{0, 1}) {
		t.Errorf("RREF = %v, pivots %v", r.A, pivots)
	}
}

func TestRREFDoesNotMutate(t *testing.T) {
	m := rows([]int64{2, 4}, []int64{1, 3})
	orig := m.Clone()
	m.RREF()
	m.NullSpace()
	m.Solve([]int64{1, 1})
	m.Inverse()
	m.Det()
	if !slices.Equal(m.A, orig.A) {
		t.Error("elimination mutated its receiver")
	}
}

func TestNullSpace(t *testing.T) {
	// H_A of loop L2 = [[1,1],[1,1]]: Ker = span{(1,-1)}.
	h := rows([]int64{1, 1}, []int64{1, 1})
	ns := h.NullSpace()
	if len(ns) != 1 || !slices.Equal(ns[0], []int64{1, -1}) {
		t.Fatalf("nullspace = %v, want [[1 -1]]", ns)
	}
	if ns := rows([]int64{2, 0}, []int64{0, 1}).NullSpace(); len(ns) != 0 {
		t.Errorf("full-rank kernel dim = %d", len(ns))
	}
	if ns := NewMat(2, 3).NullSpace(); len(ns) != 3 {
		t.Errorf("zero-matrix kernel dim = %d", len(ns))
	}
}

// TestSolve: solutions come in lowest terms, den > 0.
func TestSolve(t *testing.T) {
	h := rows([]int64{2, 0}, []int64{0, 1})
	for _, c := range []struct {
		b, num []int64
		den    int64
	}{
		{[]int64{2, 1}, []int64{1, 1}, 1}, // L1: H_A t = (2,1) → t = (1,1)
		{[]int64{1, 1}, []int64{1, 2}, 2}, // L2: H_B t = (1,1) → t = (1/2,1)
		{[]int64{-4, 2}, []int64{-2, 2}, 1},
		{[]int64{0, 0}, []int64{0, 0}, 1},
	} {
		num, den, ok := h.Solve(c.b)
		if !ok || !slices.Equal(num, c.num) || den != c.den {
			t.Errorf("Solve(%v) = %v/%d (%t), want %v/%d", c.b, num, den, ok, c.num, c.den)
		}
	}
	// Negative pivots still give a positive denominator.
	if num, den, ok := rows([]int64{-3}).Solve([]int64{2}); !ok || num[0] != -2 || den != 3 {
		t.Errorf("-3x = 2: %v/%d", num, den)
	}
	// L2: H_A=[[1,1],[1,1]], r=(0,-1) → inconsistent.
	if _, _, ok := rows([]int64{1, 1}, []int64{1, 1}).Solve([]int64{0, -1}); ok {
		t.Error("inconsistent system reported solvable")
	}
	// Underdetermined consistent: the free variables are zero.
	if num, den, ok := rows([]int64{1, 2, 3}).Solve([]int64{6}); !ok || !slices.Equal(num, []int64{6, 0, 0}) || den != 1 {
		t.Errorf("x + 2y + 3z = 6: %v/%d", num, den)
	}
}

// TestMulVec: rectangular and empty products, and the checked overflow
// and length panics.
func TestMulVec(t *testing.T) {
	m := rows([]int64{1, -2, 3}, []int64{0, 4, -1})
	if got := m.MulVec([]int64{2, 1, -1}); !slices.Equal(got, []int64{-3, 5}) {
		t.Errorf("2×3 · (2,1,-1) = %v, want [-3 5]", got)
	}
	if got := NewMat(2, 0).MulVec(nil); !slices.Equal(got, []int64{0, 0}) {
		t.Errorf("2×0 · () = %v, want [0 0]", got)
	}
	if got := NewMat(0, 3).MulVec([]int64{1, 2, 3}); len(got) != 0 {
		t.Errorf("0×3 · x = %v, want []", got)
	}
	func() {
		defer func() {
			if err, ok := recover().(error); !ok || !errors.Is(err, ErrOverflow) {
				t.Errorf("MaxInt64 + 1 in MulVec: recovered %v, want ErrOverflow", err)
			}
		}()
		rows([]int64{math.MaxInt64, 1}).MulVec([]int64{1, 1})
	}()
	expectPanic(t, "MulVec length mismatch", func() { m.MulVec([]int64{1, 2}) })
}

// TestSolveNormalizes: the 1×1 system den·x = num comes back as num/den
// in lowest terms with a positive denominator.
func TestSolveNormalizes(t *testing.T) {
	cases := []struct {
		num, den     int64
		wantN, wantD int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{0, -5, 0, 1},
		{6, 3, 2, 1},
		{7, 1, 7, 1},
		{-9, 3, -3, 1},
	}
	for _, c := range cases {
		num, den, ok := rows([]int64{c.den}).Solve([]int64{c.num})
		if !ok || num[0] != c.wantN || den != c.wantD {
			t.Errorf("%d·x = %d: %v/%d (%t), want %d/%d", c.den, c.num, num, den, ok, c.wantN, c.wantD)
		}
	}
}

func TestSolveAllFreeVariables(t *testing.T) {
	m := NewMat(1, 2) // 0 = b: x free
	if num, _, ok := m.Solve([]int64{0}); !ok || !isZero(num) {
		t.Errorf("0 = 0: %v, %t", num, ok)
	}
	if _, _, ok := m.Solve([]int64{1}); ok {
		t.Error("0 = 1 solvable")
	}
}

func TestInverse(t *testing.T) {
	adj, det := rows([]int64{2, 1}, []int64{1, 1}).Inverse()
	if det != 1 || !slices.Equal(adj.A, []int64{1, -1, -1, 2}) {
		t.Errorf("inverse = %v/%d", adj, det)
	}
	// [[0,1],[2,0]]: det −2, adj [[0,−1],[−2,0]].
	adj, det = rows([]int64{0, 1}, []int64{2, 0}).Inverse()
	if det != -2 || !slices.Equal(adj.A, []int64{0, -1, -2, 0}) {
		t.Errorf("inverse = %v/%d", adj, det)
	}
	if adj, det := rows([]int64{1, 1}, []int64{1, 1}).Inverse(); adj != nil || det != 0 {
		t.Error("singular matrix reported invertible")
	}
	if adj, _ := NewMat(2, 3).Inverse(); adj != nil {
		t.Error("rectangular matrix reported invertible")
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Mat
		want int64
	}{
		{rows([]int64{2, 0}, []int64{0, 1}), 2},
		{rows([]int64{1, 1}, []int64{1, 1}), 0},
		{rows([]int64{0, 1}, []int64{1, 0}), -1},
		{IdentityMat(3), 1},
		{rows([]int64{1, 2, 3}, []int64{4, 5, 6}, []int64{7, 8, 10}), -3},
	}
	for i, c := range cases {
		if got := c.m.Det(); got != c.want {
			t.Errorf("case %d: det = %d, want %d", i, got, c.want)
		}
	}
}

func randSmallMat(rnd *rand.Rand, n int) *Mat {
	m := NewMat(n, n)
	for i := range m.A {
		m.A[i] = rnd.Int63n(11) - 5
	}
	return m
}

func TestPropNullSpaceVectorsAreKernel(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(3)
		m := randSmallMat(rnd, n)
		ns := m.NullSpace()
		if len(ns)+m.Rank() != n {
			t.Fatalf("rank-nullity violated: rank %d + nullity %d != %d", m.Rank(), len(ns), n)
		}
		for _, v := range ns {
			if !isZero(m.MulVec(v)) {
				t.Fatalf("kernel vector %v not annihilated by %v", v, m)
			}
		}
	}
}

func TestPropSolveConsistency(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(3)
		m := randSmallMat(rnd, n)
		x0 := make([]int64, n)
		for i := range x0 {
			x0[i] = rnd.Int63n(7) - 3
		}
		b := m.MulVec(x0)
		num, den, ok := m.Solve(b)
		if !ok {
			t.Fatalf("consistent system reported unsolvable: %v b=%v", m, b)
		}
		got := m.MulVec(num)
		for i := range b {
			if got[i] != b[i]*den {
				t.Fatalf("m·x != b: %v/%d vs %v", got, den, b)
			}
		}
	}
}

// TestPropSolveLowestTerms: every solution Solve returns has den > 0 and
// no common factor between den and the numerators.
func TestPropSolveLowestTerms(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(4)
		m := randSmallMat(rnd, n)
		b := make([]int64, n)
		for i := range b {
			b[i] = rnd.Int63n(11) - 5
		}
		num, den, ok := m.Solve(b)
		if !ok {
			continue
		}
		if den <= 0 || GCDVec(append(slices.Clone(num), den)) != 1 {
			t.Fatalf("Solve(%v, %v) = %v/%d, not in lowest terms", m, b, num, den)
		}
	}
}

// TestPropSolveMatchesBigRat: on nonsingular systems every component
// num[j]/den equals the math/big.Rat Gauss–Jordan solution.
func TestPropSolveMatchesBigRat(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rnd.Intn(4)
		m := randSmallMat(rnd, n)
		if m.Det() == 0 {
			continue
		}
		b := make([]int64, n)
		for i := range b {
			b[i] = rnd.Int63n(11) - 5
		}
		a := ratRows(m, func(i, _ int) int64 { return b[i] }, 1)
		ratGaussJordan(a, n)
		num, den, ok := m.Solve(b)
		if !ok {
			t.Fatalf("nonsingular %v reported unsolvable for b=%v", m, b)
		}
		for j := 0; j < n; j++ {
			if frac(num[j], den).Cmp(a[j][n]) != 0 {
				t.Fatalf("Solve(%v, %v)[%d] = %d/%d, big.Rat gives %v", m, b, j, num[j], den, a[j][n])
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d nonsingular systems drawn", checked)
	}
}

func TestPropInverseRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(3)
		m := randSmallMat(rnd, n)
		adj, det := m.Inverse()
		if det != m.Det() {
			t.Fatalf("Inverse det %d, Det %d for %v", det, m.Det(), m)
		}
		if adj == nil {
			continue
		}
		want := IdentityMat(n)
		for i := range want.A {
			want.A[i] *= det
		}
		if !slices.Equal(mulMat(m, adj).A, want.A) || !slices.Equal(mulMat(adj, m).A, want.A) {
			t.Fatalf("m·adj != det·I for %v", m)
		}
	}
}

func TestPropDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 2 + rnd.Intn(2)
		a, b := randSmallMat(rnd, n), randSmallMat(rnd, n)
		return mulMat(a, b).Det() == a.Det()*b.Det()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOverflowDetectedAndGuarded: every checked helper refuses a result
// outside int64 with ErrOverflow and passes the rest through.
func TestOverflowDetectedAndGuarded(t *testing.T) {
	overflows := func(name string, f func()) {
		t.Helper()
		defer func() {
			if err, ok := recover().(error); !ok || !errors.Is(err, ErrOverflow) {
				t.Errorf("%s: recovered %v, want ErrOverflow", name, err)
			}
		}()
		f()
	}
	overflows("MaxInt64 + 1", func() { Add(math.MaxInt64, 1) })
	overflows("MinInt64 + -1", func() { Add(math.MinInt64, -1) })
	overflows("MaxInt64 · 2", func() { Mul(math.MaxInt64, 2) })
	overflows("-1 · MinInt64", func() { Mul(-1, math.MinInt64) })
	overflows("MinInt64 · -1", func() { Mul(math.MinInt64, -1) })
	overflows("3037000500²", func() { Mul(3037000500, 3037000500) })
	overflows("-MinInt64", func() { Neg(math.MinInt64) })
	overflows("|MinInt64|", func() { Abs(math.MinInt64) })
	overflows("MaxInt64 + 1·1", func() { MulAdd(math.MaxInt64, 1, 1) })
	overflows("MinInt64 / -1", func() { Quo(math.MinInt64, -1) })
	if Add(math.MaxInt64, math.MinInt64) != -1 || Mul(3037000499, 3037000499) != 9223372030926249001 ||
		Mul(-1, math.MaxInt64) != -math.MaxInt64 || MulAdd(-4, 2, 3) != 2 || Neg(math.MaxInt64) != -math.MaxInt64 || Quo(-7, 2) != -3 || Quo(math.MinInt64, 2) != math.MinInt64/2 {
		t.Error("a result inside int64 came out wrong")
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct{ a, d, floor, ceil int64 }{
		{7, 2, 3, 4}, {-7, 2, -4, -3}, {6, 2, 3, 3}, {-6, 2, -3, -3},
		{0, 5, 0, 0}, {1, 3, 0, 1}, {-1, 3, -1, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.d); got != c.floor {
			t.Errorf("FloorDiv(%d, %d) = %d, want %d", c.a, c.d, got, c.floor)
		}
		if got := CeilDiv(c.a, c.d); got != c.ceil {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.d, got, c.ceil)
		}
	}
}

func TestPropFloorCeilBracket(t *testing.T) {
	f := func(a int64, d uint32) bool {
		a >>= 2 // keep fl·den and ce·den inside int64
		den := int64(d%1000) + 1
		fl, ce := FloorDiv(a, den), CeilDiv(a, den)
		if a%den == 0 {
			return fl == ce && fl*den == a
		}
		return ce == fl+1 && fl*den < a && a < ce*den
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
