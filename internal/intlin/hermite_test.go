package intlin

import (
	"math/rand"
	"slices"
	"testing"
)

// rowsOf lists m's rows.
func rowsOf(m *Mat) [][]int64 {
	out := make([][]int64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// checkHermite checks that h is a's Hermite normal form: echelon rows
// with strictly increasing pivots, each positive, the entries above a
// pivot in [0, pivot), one row per rank, and the same row lattice as a.
func checkHermite(t *testing.T, a, h *Mat) {
	t.Helper()
	if h.Rows != a.Rank() {
		t.Fatalf("%d rows for rank %d: %v → %v", h.Rows, a.Rank(), rowsOf(a), rowsOf(h))
	}
	last := -1
	for i := 0; i < h.Rows; i++ {
		p := 0
		for p < h.Cols && h.At(i, p) == 0 {
			p++
		}
		if p == h.Cols || p <= last || h.At(i, p) <= 0 {
			t.Fatalf("row %d is not a positive echelon pivot row: %v", i, rowsOf(h))
		}
		last = p
		for k := 0; k < i; k++ {
			if v := h.At(k, p); v < 0 || v >= h.At(i, p) {
				t.Fatalf("entry %d above pivot %d not reduced: %v", v, h.At(i, p), rowsOf(h))
			}
		}
	}
	for _, r := range rowsOf(a) {
		if !inIntegerSpan(rowsOf(h), r) {
			t.Fatalf("row %v of %v is outside the lattice of %v", r, rowsOf(a), rowsOf(h))
		}
	}
	for _, r := range rowsOf(h) {
		if !inIntegerSpan(rowsOf(a), r) {
			t.Fatalf("row %v of the form is outside the lattice of %v", r, rowsOf(a))
		}
	}
}

func TestHermiteKnown(t *testing.T) {
	for _, c := range []struct{ a, want [][]int64 }{
		{[][]int64{{2, 4, 4}, {-6, 6, 12}, {10, 4, 16}}, [][]int64{{2, 0, 120}, {0, 2, 20}, {0, 0, 156}}}, // det 624 either way
		{[][]int64{{1, 0}, {0, 1}}, [][]int64{{1, 0}, {0, 1}}},
		// The lattice of (2,0,−1), (0,2,−1) holds (1,1,−1).
		{[][]int64{{0, 2, -1}, {2, 0, -1}}, [][]int64{{2, 0, -1}, {0, 2, -1}}},
		{[][]int64{{3, 6}, {2, 4}, {0, 0}}, [][]int64{{1, 2}}},
		{[][]int64{{0, 0}}, [][]int64{}},
	} {
		a := FromRows(c.a)
		h := a.Hermite()
		checkHermite(t, a, h)
		if got := rowsOf(h); !slices.EqualFunc(got, c.want, slices.Equal) {
			t.Errorf("Hermite(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestPropHermiteRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		a := NewMat(1+rnd.Intn(4), 1+rnd.Intn(4))
		for i := range a.A {
			a.A[i] = rnd.Int63n(21) - 10
		}
		before := a.Clone()
		checkHermite(t, a, a.Hermite())
		if !slices.Equal(a.A, before.A) {
			t.Fatalf("Hermite modified its input")
		}
	}
}

// TestUnimodularInverse: a det ±1 matrix has an integer inverse, any
// other none. The inverse of V from A's Smith form is what Section IV
// builds on: with unit invariants its rows after the rank complete A to
// a unimodular matrix, and otherwise its first rows reach the integer
// points of A's row space that A's rows miss.
func TestUnimodularInverse(t *testing.T) {
	for _, c := range []struct {
		m  [][]int64
		ok bool
	}{{[][]int64{{2, 1}, {1, 1}}, true}, {[][]int64{{0, 1}, {1, 0}}, true}, {[][]int64{{2, 0}, {0, 1}}, false}, {[][]int64{{1, 2}}, false}} {
		m := FromRows(c.m)
		inv := m.UnimodularInverse()
		if (inv != nil) != c.ok {
			t.Fatalf("%v: inverse %v, want one: %v", c.m, inv, c.ok)
		}
		if inv != nil && !slices.Equal(mulMat(m, inv).A, IdentityMat(m.Rows).A) {
			t.Errorf("%v · %v is not the identity", c.m, rowsOf(inv))
		}
	}

	q := [][]int64{{2, 5, 3}}
	vi := SmithNormalForm(FromRows(q)).V.UnimodularInverse()
	if d := FromRows(append(q, vi.Row(1), vi.Row(2))).Det(); d != 1 && d != -1 {
		t.Errorf("[Q; rows 1–2 of V⁻¹] has det %d", d)
	}
	sub := [][]int64{{2, 0, -1}, {0, 2, -1}}
	vi = SmithNormalForm(FromRows(sub)).V.UnimodularInverse()
	sat := [][]int64{vi.Row(0), vi.Row(1)}
	for _, r := range append(sub, []int64{1, 1, -1}) {
		if !inIntegerSpan(sat, r) {
			t.Errorf("%v does not reach %v", sat, r)
		}
	}
	if inIntegerSpan(sub, []int64{1, 1, -1}) {
		t.Errorf("%v already reaches (1,1,−1)", sub)
	}
}
