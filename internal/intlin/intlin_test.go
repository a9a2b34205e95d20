package intlin

import (
	"math/rand"
	"testing"
	"time"
)

func TestExtGCD(t *testing.T) {
	cases := []struct{ a, b, g int64 }{
		{12, 18, 6}, {-12, 18, 6}, {12, -18, 6}, {-12, -18, 6},
		{0, 7, 7}, {7, 0, 7}, {0, 0, 0}, {1, 1, 1}, {17, 13, 1},
	}
	for _, c := range cases {
		g, x, y := ExtGCD(c.a, c.b)
		if g != c.g {
			t.Errorf("ExtGCD(%d,%d) g = %d, want %d", c.a, c.b, g, c.g)
		}
		if c.a*x+c.b*y != g {
			t.Errorf("Bézout fails: %d·%d + %d·%d != %d", c.a, x, c.b, y, g)
		}
	}
}

// TestGCDVecPairs: the gcd of two entries is sign-blind, and an all-zero
// pair has gcd 1 so dividing by it is always safe.
func TestGCDVecPairs(t *testing.T) {
	cases := []struct{ a, b, gcd int64 }{
		{12, 18, 6}, {-12, 18, 6}, {12, -18, 6}, {-12, -18, 6},
		{0, 5, 5}, {5, 0, 5}, {0, 0, 1}, {7, 13, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := GCDVec([]int64{c.a, c.b}); got != c.gcd {
			t.Errorf("GCDVec(%d,%d) = %d, want %d", c.a, c.b, got, c.gcd)
		}
	}
}

func TestGCDVecPrimitive(t *testing.T) {
	if got := GCDVec([]int64{4, 6, 8}); got != 2 {
		t.Errorf("GCDVec = %d", got)
	}
	if got := GCDVec([]int64{0, 0}); got != 1 {
		t.Errorf("GCDVec zeros = %d", got)
	}
	p := Primitive([]int64{-2, 4, -6})
	want := []int64{1, -2, 3}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Primitive = %v, want %v", p, want)
		}
	}
	p = Primitive([]int64{0, -3, 6})
	want = []int64{0, 1, -2}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Primitive = %v, want %v", p, want)
		}
	}
}

func TestMatMulVec(t *testing.T) {
	m := FromRows([][]int64{{2, 0}, {0, 1}})
	got := m.MulVec([]int64{3, 4})
	if got[0] != 6 || got[1] != 4 {
		t.Errorf("MulVec = %v", got)
	}
}

// mulMat returns m·n (test helper).
func mulMat(m, n *Mat) *Mat {
	out := NewMat(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < n.Cols; j++ {
			for k := 0; k < m.Cols; k++ {
				out.Set(i, j, MulAdd(out.At(i, j), m.At(i, k), n.At(k, j)))
			}
		}
	}
	return out
}

func checkSNF(t *testing.T, a *Mat) *SNF {
	t.Helper()
	snf := SmithNormalForm(a)
	// U·A·V == S
	uav := mulMat(mulMat(snf.U, a), snf.V)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if uav.At(i, j) != snf.S.At(i, j) {
				t.Fatalf("UAV != S:\nA=\n%v\nUAV=\n%v\nS=\n%v", a, uav, snf.S)
			}
		}
	}
	// S diagonal, nonnegative, divisibility chain.
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i != j && snf.S.At(i, j) != 0 {
				t.Fatalf("S not diagonal:\n%v", snf.S)
			}
		}
	}
	for k := 0; k < n; k++ {
		d := snf.S.At(k, k)
		if d < 0 {
			t.Fatalf("negative diagonal in S:\n%v", snf.S)
		}
		if k+1 < n {
			next := snf.S.At(k+1, k+1)
			if d == 0 && next != 0 {
				t.Fatalf("zero before nonzero on diagonal:\n%v", snf.S)
			}
			if d != 0 && next%d != 0 {
				t.Fatalf("divisibility chain broken: %d ∤ %d\n%v", d, next, snf.S)
			}
		}
	}
	// U, V unimodular: integer inverse exists iff |det| == 1.
	if d := intDet(snf.U); d != 1 && d != -1 {
		t.Fatalf("U not unimodular (det %d)", d)
	}
	if d := intDet(snf.V); d != 1 && d != -1 {
		t.Fatalf("V not unimodular (det %d)", d)
	}
	return snf
}

// intDet computes the determinant of a small integer matrix by cofactor
// expansion (test helper; matrices are ≤ 5×5).
func intDet(m *Mat) int64 {
	n := m.Rows
	if n == 1 {
		return m.At(0, 0)
	}
	var det int64
	sign := int64(1)
	for j := 0; j < n; j++ {
		sub := NewMat(n-1, n-1)
		for i := 1; i < n; i++ {
			cj := 0
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				sub.Set(i-1, cj, m.At(i, k))
				cj++
			}
		}
		det += sign * m.At(0, j) * intDet(sub)
		sign = -sign
	}
	return det
}

func TestSmithNormalFormKnown(t *testing.T) {
	// Classic example: [[2,4,4],[-6,6,12],[10,-4,-16]] has SNF diag(2,6,12).
	a := FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, -4, -16}})
	snf := checkSNF(t, a)
	want := []int64{2, 6, 12}
	for i, w := range want {
		if snf.S.At(i, i) != w {
			t.Errorf("S[%d,%d] = %d, want %d", i, i, snf.S.At(i, i), w)
		}
	}
	if snf.Rank != 3 {
		t.Errorf("rank = %d", snf.Rank)
	}
}

func TestSmithNormalFormShapes(t *testing.T) {
	cases := []*Mat{
		FromRows([][]int64{{2, 0}, {0, 1}}),                  // H_A of L1
		FromRows([][]int64{{1, 1}, {1, 1}}),                  // H_A of L2, rank 1
		FromRows([][]int64{{0, 0}, {0, 0}}),                  // zero
		FromRows([][]int64{{1, 2, 3}}),                       // wide
		FromRows([][]int64{{3}, {6}, {9}}),                   // tall
		FromRows([][]int64{{4, 6}, {6, 9}}),                  // rank 1 with gcd structure
		FromRows([][]int64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}), // needs divisibility fix
	}
	for _, a := range cases {
		checkSNF(t, a)
	}
}

func TestSolveDiophantineBasics(t *testing.T) {
	// L1 array A: H=[[2,0],[0,1]], r=(2,1) → t=(1,1), trivial kernel.
	h := FromRows([][]int64{{2, 0}, {0, 1}})
	sol, ok := SolveDiophantine(h, []int64{2, 1})
	if !ok {
		t.Fatal("expected solvable")
	}
	if got := h.MulVec(sol.Particular); got[0] != 2 || got[1] != 1 {
		t.Errorf("H·x = %v", got)
	}
	if len(sol.KernelBasis) != 0 {
		t.Errorf("kernel dim = %d, want 0", len(sol.KernelBasis))
	}

	// L2 array B: H=[[2,0],[0,1]], r=(1,1): rational solution (1/2,1) only →
	// no integer solution.
	if _, ok := SolveDiophantine(h, []int64{1, 1}); ok {
		t.Error("expected no integer solution for H t = (1,1)")
	}

	// L2 array A: H=[[1,1],[1,1]], r=(1,1) → solvable with 1-dim kernel.
	ha := FromRows([][]int64{{1, 1}, {1, 1}})
	sol, ok = SolveDiophantine(ha, []int64{1, 1})
	if !ok {
		t.Fatal("expected solvable")
	}
	if got := ha.MulVec(sol.Particular); got[0] != 1 || got[1] != 1 {
		t.Errorf("H·x = %v", got)
	}
	if len(sol.KernelBasis) != 1 {
		t.Fatalf("kernel dim = %d, want 1", len(sol.KernelBasis))
	}
	if got := ha.MulVec(sol.KernelBasis[0]); got[0] != 0 || got[1] != 0 {
		t.Errorf("kernel vector not annihilated: %v", got)
	}

	// Inconsistent: H=[[1,1],[1,1]], r=(0,-1).
	if _, ok := SolveDiophantine(ha, []int64{0, -1}); ok {
		t.Error("expected inconsistent")
	}
}

func TestSolveDiophantineParity(t *testing.T) {
	// 2x = b solvable iff b even.
	a := FromRows([][]int64{{2}})
	if _, ok := SolveDiophantine(a, []int64{4}); !ok {
		t.Error("2x=4 unsolvable?")
	}
	if _, ok := SolveDiophantine(a, []int64{3}); ok {
		t.Error("2x=3 solvable?")
	}
	// 2x + 4y = 6 solvable; 2x + 4y = 3 not.
	a = FromRows([][]int64{{2, 4}})
	sol, ok := SolveDiophantine(a, []int64{6})
	if !ok {
		t.Fatal("2x+4y=6 unsolvable?")
	}
	if got := a.MulVec(sol.Particular); got[0] != 6 {
		t.Errorf("A·x = %v", got)
	}
	if len(sol.KernelBasis) != 1 {
		t.Errorf("kernel dim = %d", len(sol.KernelBasis))
	}
	if _, ok := SolveDiophantine(a, []int64{3}); ok {
		t.Error("2x+4y=3 solvable?")
	}
}

func TestSNFRegressionNegativePivotCycle(t *testing.T) {
	// This matrix once made SmithNormalForm cycle forever: with a negative
	// pivot that divides its column entries, the Bézout row pair rewrote
	// the pivot row each pass instead of eliminating, so the row/column
	// clearing ping-ponged without the pivot ever shrinking.
	a := FromRows([][]int64{{2, 3, 9}, {-7, -10, -6}, {-3, -7, 7}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		checkSNF(t, a)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SmithNormalForm did not terminate")
	}
}

func TestPropSNFRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := 1 + rnd.Intn(4)
		c := 1 + rnd.Intn(4)
		a := NewMat(r, c)
		for i := range a.A {
			a.A[i] = rnd.Int63n(21) - 10
		}
		checkSNF(t, a)
	}
}

func TestPropDiophantineRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		r := 1 + rnd.Intn(3)
		c := 1 + rnd.Intn(3)
		a := NewMat(r, c)
		for i := range a.A {
			a.A[i] = rnd.Int63n(11) - 5
		}
		// Build b from a known integer solution so solvability is guaranteed.
		x0 := make([]int64, c)
		for i := range x0 {
			x0[i] = rnd.Int63n(9) - 4
		}
		b := a.MulVec(x0)
		sol, ok := SolveDiophantine(a, b)
		if !ok {
			t.Fatalf("known-solvable system reported unsolvable:\n%v b=%v", a, b)
		}
		got := a.MulVec(sol.Particular)
		for i := range b {
			if got[i] != b[i] {
				t.Fatalf("A·x != b: %v vs %v", got, b)
			}
		}
		for _, k := range sol.KernelBasis {
			kv := a.MulVec(k)
			for i := range kv {
				if kv[i] != 0 {
					t.Fatalf("kernel vector %v not annihilated", k)
				}
			}
		}
		// The kernel plus particular must recover x0:
		// x0 - particular must be an integer combination of the kernel
		// basis. Verify by solving the small system over the kernel.
		diff := make([]int64, c)
		for i := range diff {
			diff[i] = x0[i] - sol.Particular[i]
		}
		if !inIntegerSpan(sol.KernelBasis, diff) {
			t.Fatalf("x0 not representable: diff=%v kernel=%v", diff, sol.KernelBasis)
		}
	}
}

// inIntegerSpan reports whether target is an integer combination of basis
// vectors by solving B·c = target with B the column matrix of the basis.
func inIntegerSpan(basis [][]int64, target []int64) bool {
	if len(basis) == 0 {
		for _, v := range target {
			if v != 0 {
				return false
			}
		}
		return true
	}
	n := len(target)
	bm := NewMat(n, len(basis))
	for j, col := range basis {
		for i := 0; i < n; i++ {
			bm.Set(i, j, col[i])
		}
	}
	_, ok := SolveDiophantine(bm, target)
	return ok
}
