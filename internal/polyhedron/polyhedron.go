// Package polyhedron implements systems of integer linear inequalities
// and exact Fourier–Motzkin elimination.
//
// Two consumers drive the design. The dependence analyzer asks whether an
// integer point exists in a small polyhedron (a solution coset intersected
// with the iteration-difference box). The program transformation of
// Section IV needs, for each new loop variable, affine lower/upper bounds
// in terms of the enclosing variables — exactly what eliminating the inner
// variables with Fourier–Motzkin produces.
//
// Inequalities keep integer coefficients throughout: elimination combines
// two of them with positive integer multipliers and divides the result by
// the gcd of its coefficients and bound, so each derived inequality is the
// primitive integer multiple of the rational one, and the arithmetic is
// intlin's checked int64.
package polyhedron

import (
	"fmt"
	"slices"
	"strings"

	"commfree/internal/intlin"
)

// Ineq is a single inequality  Σ Coeffs[j]·x_j ≤ Bound.
type Ineq struct {
	Coeffs []int64
	Bound  int64
}

// String renders the inequality for diagnostics.
func (q Ineq) String() string {
	var parts []string
	for j, c := range q.Coeffs {
		if c != 0 {
			parts = append(parts, fmt.Sprintf("%d·x%d", c, j+1))
		}
	}
	lhs := "0"
	if len(parts) > 0 {
		lhs = strings.Join(parts, " + ")
	}
	return fmt.Sprintf("%s ≤ %d", lhs, q.Bound)
}

// System is a conjunction of inequalities over NumVars variables.
type System struct {
	NumVars int
	Ineqs   []Ineq
}

// NewSystem returns an empty system over n variables.
func NewSystem(n int) *System {
	if n < 0 {
		panic(fmt.Errorf("polyhedron: negative variable count %d", n))
	}
	return &System{NumVars: n}
}

// AddLE adds Σ coeffs·x ≤ bound.
func (s *System) AddLE(coeffs []int64, bound int64) {
	if len(coeffs) != s.NumVars {
		panic(fmt.Errorf("polyhedron: %d coefficients for %d variables", len(coeffs), s.NumVars))
	}
	s.Ineqs = append(s.Ineqs, Ineq{Coeffs: slices.Clone(coeffs), Bound: bound})
}

// AddGE adds Σ coeffs·x ≥ bound (stored as the negated ≤ form).
func (s *System) AddGE(coeffs []int64, bound int64) {
	neg := make([]int64, len(coeffs))
	for i, c := range coeffs {
		neg[i] = intlin.Neg(c)
	}
	s.AddLE(neg, intlin.Neg(bound))
}

// AddEq adds Σ coeffs·x = bound as a ≤/≥ pair.
func (s *System) AddEq(coeffs []int64, bound int64) {
	s.AddLE(coeffs, bound)
	s.AddGE(coeffs, bound)
}

// Eliminate removes variable k (0-based) by Fourier–Motzkin, returning a
// system over the same variable indexing whose inequalities have zero
// coefficient at k. The projection is exact over the rationals.
func (s *System) Eliminate(k int) *System {
	if k < 0 || k >= s.NumVars {
		panic(fmt.Errorf("polyhedron: eliminate variable %d of %d", k, s.NumVars))
	}
	out := NewSystem(s.NumVars)
	var lowers, uppers []Ineq // constraints giving x_k ≥ …, x_k ≤ …
	for _, q := range s.Ineqs {
		switch c := q.Coeffs[k]; {
		case c == 0:
			out.Ineqs = append(out.Ineqs, q)
		case c > 0:
			uppers = append(uppers, q)
		default:
			lowers = append(lowers, q)
		}
	}
	// Pair each lower with each upper: |c_hi|·lo + |c_lo|·hi has zero
	// coefficient at k; dividing by its gcd keeps it primitive.
	for _, lo := range lowers {
		for _, hi := range uppers {
			cl, ch := intlin.Neg(lo.Coeffs[k]), hi.Coeffs[k] // both positive
			q := Ineq{Coeffs: make([]int64, s.NumVars)}
			for j := range q.Coeffs {
				if j != k {
					q.Coeffs[j] = intlin.MulAdd(intlin.Mul(ch, lo.Coeffs[j]), cl, hi.Coeffs[j])
				}
			}
			q.Bound = intlin.MulAdd(intlin.Mul(ch, lo.Bound), cl, hi.Bound)
			g := intlin.GCDVec(append(q.Coeffs, q.Bound))
			for j := range q.Coeffs {
				q.Coeffs[j] /= g
			}
			q.Bound /= g
			out.Ineqs = append(out.Ineqs, q)
		}
	}
	out.dedup()
	return out
}

// dedup drops duplicate and trivially-true inequalities (0 ≤ nonnegative)
// and keeps the trivially-false ones (0 ≤ negative) so emptiness stays
// visible. The first occurrence of a duplicate is kept.
func (s *System) dedup() {
	kept := s.Ineqs[:0]
	for _, q := range s.Ineqs {
		trivial := q.Bound >= 0 && !slices.ContainsFunc(q.Coeffs, func(c int64) bool { return c != 0 })
		if !trivial && !slices.ContainsFunc(kept, q.equal) {
			kept = append(kept, q)
		}
	}
	s.Ineqs = kept
}

// equal reports whether two inequalities over the same variables have
// equal coefficients and bounds.
func (q Ineq) equal(o Ineq) bool {
	return q.Bound == o.Bound && slices.Equal(q.Coeffs, o.Coeffs)
}

// bounds returns the integer range [lo, hi] of x_k when x_0..x_{k-1} take
// the values outer, from the inequalities that involve no variable after
// x_k; a row left with no variable and a negative bound makes it empty
// (lo > hi). An unbounded side is an error.
func (s *System) bounds(k int, outer []int64) (lo, hi int64, err error) {
	hasLo, hasHi := false, false
	for _, q := range s.Ineqs {
		if slices.ContainsFunc(q.Coeffs[k+1:], func(c int64) bool { return c != 0 }) {
			continue
		}
		rest := q.Bound
		for j, v := range outer {
			rest = intlin.MulAdd(rest, intlin.Neg(q.Coeffs[j]), v)
		}
		switch c := q.Coeffs[k]; {
		case c == 0:
			if rest < 0 {
				return 1, 0, nil
			}
		case c > 0:
			if v := intlin.FloorDiv(rest, c); !hasHi || v < hi {
				hi, hasHi = v, true
			}
		default:
			if v := intlin.CeilDiv(intlin.Neg(rest), intlin.Neg(c)); !hasLo || v > lo {
				lo, hasLo = v, true
			}
		}
	}
	if !hasLo || !hasHi {
		return 0, 0, fmt.Errorf("polyhedron: variable x%d unbounded", k+1)
	}
	return lo, hi, nil
}

// HasIntegerPoint reports whether any integer point satisfies the system:
// it walks x_1, x_2, … in order, each within the bounds the
// Fourier–Motzkin projection onto x_1..x_k gives at the outer values,
// and stops at the first point. A variable the walk reaches unbounded is
// an error.
func (s *System) HasIntegerPoint() (bool, error) {
	n := s.NumVars
	tower := make([]*System, n+1) // tower[k] constrains x_1..x_k only
	tower[n] = s
	for k := n; k > 0; k-- {
		tower[k-1] = tower[k].Eliminate(k - 1)
	}
	for _, q := range tower[0].Ineqs {
		if q.Bound < 0 { // 0 ≤ negative: empty over the rationals already
			return false, nil
		}
	}
	point := make([]int64, n)
	var rec func(k int) (bool, error)
	rec = func(k int) (bool, error) {
		if k == n {
			return true, nil
		}
		lo, hi, err := tower[k+1].bounds(k, point[:k])
		for v := lo; err == nil && v <= hi; v++ {
			point[k] = v
			var found bool
			if found, err = rec(k + 1); found {
				return true, nil
			}
		}
		return false, err
	}
	return rec(0)
}

// String renders the system one inequality per line.
func (s *System) String() string {
	var lines []string
	for _, q := range s.Ineqs {
		lines = append(lines, q.String())
	}
	return strings.Join(lines, "\n")
}
