package polyhedron

import (
	"strings"
	"testing"
)

func TestStringRendering(t *testing.T) {
	s := NewSystem(2)
	s.AddLE([]int64{2, -1}, 7)
	s.AddGE([]int64{0, 1}, 1)
	out := s.String()
	if !strings.Contains(out, "≤") {
		t.Errorf("rendering = %q", out)
	}
	q := Ineq{Coeffs: []int64{0, 0}, Bound: 3}
	if got := q.String(); !strings.Contains(got, "0 ≤ 3") {
		t.Errorf("zero-row rendering = %q", got)
	}
}

func TestContradictionSurvivesDedup(t *testing.T) {
	// 0 ≤ -1 (after substitution) must be kept so emptiness is visible.
	s := NewSystem(1)
	s.AddLE([]int64{1}, 2)
	s.AddGE([]int64{1}, 5)
	e := s.Eliminate(0)
	if lo, hi, err := e.bounds(0, nil); err != nil || lo <= hi {
		// Eliminate produced 0 ≤ -3; bounds must report the range empty.
		t.Errorf("contradiction lost during elimination: [%d, %d] (%v)", lo, hi, err)
	}
}

func TestNegativeSystemSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSystem(-1) did not panic")
		}
	}()
	NewSystem(-1)
}

func TestEliminateOutOfRangePanics(t *testing.T) {
	s := NewSystem(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range eliminate did not panic")
		}
	}()
	s.Eliminate(5)
}

func TestBoundsOnMixedConstraintsIgnored(t *testing.T) {
	// bounds on x_k reads only rows over x_1..x_k; a row involving a
	// later variable is skipped.
	s := NewSystem(2)
	s.AddLE([]int64{1, 1}, 4) // involves x_2: ignored by bounds on x_1
	s.AddLE([]int64{1, 0}, 9)
	s.AddGE([]int64{1, 0}, 0)
	if _, hi, err := s.bounds(0, nil); err != nil || hi != 9 {
		t.Errorf("hi = %d (%v), want 9 from the pure row", hi, err)
	}
}

func TestEnumerationSingleVariable(t *testing.T) {
	s := NewSystem(1)
	s.AddGE([]int64{2}, 3) // 2x ≥ 3 → x ≥ 2 over the integers
	s.AddLE([]int64{1}, 4)
	pts := enumerate(t, s)
	if len(pts) != 3 || pts[0][0] != 2 || pts[2][0] != 4 {
		t.Errorf("points = %v, want [2],[3],[4]", pts)
	}
}
