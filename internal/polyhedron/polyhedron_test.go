package polyhedron

import (
	"math/rand"
	"slices"
	"testing"
)

// enumerate lists the system's integer points in lexicographic order,
// walking them the way HasIntegerPoint does: each variable within the
// bounds of the Fourier–Motzkin projection onto it and the variables
// before it, at their values.
func enumerate(t *testing.T, s *System) [][]int64 {
	t.Helper()
	n := s.NumVars
	tower := make([]*System, n+1)
	tower[n] = s
	for k := n; k > 0; k-- {
		tower[k-1] = tower[k].Eliminate(k - 1)
	}
	var out [][]int64
	point := make([]int64, n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, slices.Clone(point))
			return
		}
		lo, hi, err := tower[k+1].bounds(k, point[:k])
		if err != nil {
			t.Fatal(err)
		}
		for v := lo; v <= hi; v++ {
			point[k] = v
			rec(k + 1)
		}
	}
	rec(0)
	return out
}

// satisfies reports whether integer point p satisfies every inequality.
func satisfies(s *System, p []int64) bool {
	for _, q := range s.Ineqs {
		var sum int64
		for j, c := range q.Coeffs {
			sum += c * p[j]
		}
		if sum > q.Bound {
			return false
		}
	}
	return true
}

// box adds lo ≤ x_k ≤ hi for each variable.
func box(s *System, lo, hi []int64) {
	n := s.NumVars
	for k := 0; k < n; k++ {
		unit := make([]int64, n)
		unit[k] = 1
		s.AddLE(unit, hi[k])
		s.AddGE(unit, lo[k])
	}
}

func TestEnumerateBox(t *testing.T) {
	s := NewSystem(2)
	box(s, []int64{1, 1}, []int64{3, 2})
	pts := enumerate(t, s)
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6: %v", len(pts), pts)
	}
	// Lexicographic order.
	if pts[0][0] != 1 || pts[0][1] != 1 || pts[5][0] != 3 || pts[5][1] != 2 {
		t.Errorf("order wrong: %v", pts)
	}
}

func TestEnumerateTriangle(t *testing.T) {
	// 1 ≤ x ≤ 4, 1 ≤ y ≤ 4, x + y ≤ 4 → 6 points.
	s := NewSystem(2)
	box(s, []int64{1, 1}, []int64{4, 4})
	s.AddLE([]int64{1, 1}, 4)
	pts := enumerate(t, s)
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6: %v", len(pts), pts)
	}
	for _, p := range pts {
		if p[0]+p[1] > 4 {
			t.Errorf("point %v violates x+y≤4", p)
		}
	}
}

func TestEmptySystem(t *testing.T) {
	// x ≥ 3 and x ≤ 2: empty.
	s := NewSystem(1)
	s.AddGE([]int64{1}, 3)
	s.AddLE([]int64{1}, 2)
	ok, err := s.HasIntegerPoint()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty system has point")
	}
}

func TestIntegerGap(t *testing.T) {
	// 1/3 ≤ x ≤ 2/3 has rational points but no integer ones.
	s := NewSystem(1)
	s.AddLE([]int64{3}, 2) // 3x ≤ 2
	s.AddGE([]int64{3}, 1) // 3x ≥ 1
	ok, err := s.HasIntegerPoint()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("gap interval reported integer point")
	}
}

func TestEqualityConstraint(t *testing.T) {
	// x + y = 3, 0 ≤ x,y ≤ 3 → 4 points.
	s := NewSystem(2)
	box(s, []int64{0, 0}, []int64{3, 3})
	s.AddEq([]int64{1, 1}, 3)
	pts := enumerate(t, s)
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4: %v", len(pts), pts)
	}
	for _, p := range pts {
		if p[0]+p[1] != 3 {
			t.Errorf("point %v violates x+y=3", p)
		}
	}
}

func TestUnboundedDetected(t *testing.T) {
	s := NewSystem(2)
	s.AddGE([]int64{1, 0}, 0)
	s.AddLE([]int64{1, 0}, 5)
	// y unbounded.
	if _, err := s.HasIntegerPoint(); err == nil {
		t.Error("unbounded system not detected")
	}
}

func TestZeroVariables(t *testing.T) {
	s := NewSystem(0)
	ok, err := s.HasIntegerPoint()
	if err != nil || !ok {
		t.Errorf("trivial system: ok=%v err=%v", ok, err)
	}
}

func TestSubstituteAndBounds(t *testing.T) {
	// x + y ≤ 5, y ≥ 1; fix x = 3 → 1 ≤ y ≤ 2.
	s := NewSystem(2)
	s.AddLE([]int64{1, 1}, 5)
	s.AddGE([]int64{0, 1}, 1)
	lo, hi, err := s.bounds(1, []int64{3})
	if err != nil || lo != 1 || hi != 2 {
		t.Errorf("y ∈ [%d, %d] (%v), want [1,2]", lo, hi, err)
	}
}

func TestEliminateProjection(t *testing.T) {
	// Triangle x+y ≤ 4, x,y ≥ 1. Eliminating y gives x ≤ 3, x ≥ 1.
	s := NewSystem(2)
	s.AddLE([]int64{1, 1}, 4)
	s.AddGE([]int64{1, 0}, 1)
	s.AddGE([]int64{0, 1}, 1)
	lo, hi, err := s.Eliminate(1).bounds(0, nil)
	if err != nil || lo != 1 || hi != 3 {
		t.Errorf("x ∈ [%d, %d] (%v), want [1,3]", lo, hi, err)
	}
}

func TestL4TransformedBoundsShape(t *testing.T) {
	// The Section-IV worked example: variables (i1', i2', i1) with
	// i1' = i1+i2, i2' = -i1+i3, all of i1,i2,i3 in [1,4].
	// In terms of (v1,v2,v3) = (i1', i2', i1):
	//   i1 = v3, i2 = v1 - v3, i3 = v2 + v3.
	s := NewSystem(3)
	add := func(coeffs []int64) {
		s.AddGE(coeffs, 1)
		s.AddLE(coeffs, 4)
	}
	add([]int64{0, 0, 1})  // i1
	add([]int64{1, 0, -1}) // i2
	add([]int64{0, 1, 1})  // i3
	pts := enumerate(t, s)
	if len(pts) != 64 {
		t.Fatalf("points = %d, want 64", len(pts))
	}
	// Outer bounds must match the paper: i1' from 2 to 8,
	// i2' from max(-3, -i1'+2) to min(3, -i1'+8).
	seen := map[int64]bool{}
	for _, p := range pts {
		seen[p[0]] = true
		loB := maxI(-3, -p[0]+2)
		hiB := minI(3, -p[0]+8)
		if p[1] < loB || p[1] > hiB {
			t.Errorf("i2'=%d outside paper bounds [%d,%d] at i1'=%d", p[1], loB, hiB, p[0])
		}
	}
	for v := int64(2); v <= 8; v++ {
		if !seen[v] {
			t.Errorf("i1' = %d missing", v)
		}
	}
	if seen[1] || seen[9] {
		t.Error("i1' out of paper range present")
	}
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestPropEnumerationMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rnd.Intn(2)
		s := NewSystem(n)
		lo := make([]int64, n)
		hi := make([]int64, n)
		for k := 0; k < n; k++ {
			lo[k] = rnd.Int63n(5) - 2
			hi[k] = lo[k] + rnd.Int63n(5)
		}
		box(s, lo, hi)
		// Add a couple of random cutting planes.
		for c := 0; c < 2; c++ {
			coeffs := make([]int64, n)
			for k := range coeffs {
				coeffs[k] = rnd.Int63n(5) - 2
			}
			s.AddLE(coeffs, rnd.Int63n(9)-2)
		}
		got := enumerate(t, s)
		// Brute force over the box.
		var want [][]int64
		var walk func(k int, p []int64)
		walk = func(k int, p []int64) {
			if k == n {
				if satisfies(s, p) {
					cp := make([]int64, n)
					copy(cp, p)
					want = append(want, cp)
				}
				return
			}
			for v := lo[k]; v <= hi[k]; v++ {
				p[k] = v
				walk(k+1, p)
			}
		}
		walk(0, make([]int64, n))
		if found, err := s.HasIntegerPoint(); err != nil || found != (len(want) > 0) {
			t.Fatalf("trial %d: HasIntegerPoint = %t (%v), brute force finds %d points", trial, found, err, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d points, brute force %d\nsystem:\n%s", trial, len(got), len(want), s)
		}
		for i := range got {
			for k := 0; k < n; k++ {
				if got[i][k] != want[i][k] {
					t.Fatalf("trial %d: point %d mismatch %v vs %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}
