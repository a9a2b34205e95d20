// Package polyhedron implements systems of rational linear inequalities
// and exact Fourier–Motzkin elimination.
//
// Two consumers drive the design. The dependence analyzer asks whether an
// integer point exists in a small polyhedron (a solution coset intersected
// with the iteration-difference box). The program transformation of
// Section IV needs, for each new loop variable, affine lower/upper bounds
// in terms of the enclosing variables — exactly what eliminating the inner
// variables with Fourier–Motzkin produces.
package polyhedron

import (
	"fmt"
	"slices"
	"strings"

	"commfree/internal/rational"
)

// Ineq is a single inequality  Σ Coeffs[j]·x_j ≤ Bound.
type Ineq struct {
	Coeffs []rational.Rat
	Bound  rational.Rat
}

// String renders the inequality for diagnostics.
func (q Ineq) String() string {
	var parts []string
	for j, c := range q.Coeffs {
		if c.IsZero() {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s·x%d", c, j+1))
	}
	lhs := "0"
	if len(parts) > 0 {
		lhs = strings.Join(parts, " + ")
	}
	return lhs + " ≤ " + q.Bound.String()
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

// Clone deep-copies the system.
func (s *System) Clone() *System {
	c := NewSystem(s.NumVars)
	c.Ineqs = make([]Ineq, len(s.Ineqs))
	for i, q := range s.Ineqs {
		coeffs := make([]rational.Rat, len(q.Coeffs))
		copy(coeffs, q.Coeffs)
		c.Ineqs[i] = Ineq{Coeffs: coeffs, Bound: q.Bound}
	}
	return c
}

func (s *System) checkLen(coeffs []rational.Rat) {
	if len(coeffs) != s.NumVars {
		panic(fmt.Errorf("polyhedron: %d coefficients for %d variables", len(coeffs), s.NumVars))
	}
}

// AddLE adds Σ coeffs·x ≤ bound.
func (s *System) AddLE(coeffs []rational.Rat, bound rational.Rat) {
	s.checkLen(coeffs)
	cp := make([]rational.Rat, len(coeffs))
	copy(cp, coeffs)
	s.Ineqs = append(s.Ineqs, Ineq{Coeffs: cp, Bound: bound})
}

// AddGE adds Σ coeffs·x ≥ bound (stored as the negated ≤ form).
func (s *System) AddGE(coeffs []rational.Rat, bound rational.Rat) {
	neg := make([]rational.Rat, len(coeffs))
	for i, c := range coeffs {
		neg[i] = c.Neg()
	}
	s.AddLE(neg, bound.Neg())
}

// AddEq adds Σ coeffs·x = bound as a ≤/≥ pair.
func (s *System) AddEq(coeffs []rational.Rat, bound rational.Rat) {
	s.AddLE(coeffs, bound)
	s.AddGE(coeffs, bound)
}

// AddLEInts is AddLE with integer data.
func (s *System) AddLEInts(coeffs []int64, bound int64) {
	s.AddLE(ratVec(coeffs), rational.FromInt(bound))
}

// AddGEInts is AddGE with integer data.
func (s *System) AddGEInts(coeffs []int64, bound int64) {
	s.AddGE(ratVec(coeffs), rational.FromInt(bound))
}

// AddEqInts is AddEq with integer data.
func (s *System) AddEqInts(coeffs []int64, bound int64) {
	s.AddEq(ratVec(coeffs), rational.FromInt(bound))
}

func ratVec(v []int64) []rational.Rat {
	out := make([]rational.Rat, len(v))
	for i, x := range v {
		out[i] = rational.FromInt(x)
	}
	return out
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
		c := q.Coeffs[k]
		switch {
		case c.IsZero():
			out.Ineqs = append(out.Ineqs, q)
		case c.Sign() > 0:
			uppers = append(uppers, q)
		default:
			lowers = append(lowers, q)
		}
	}
	// Pair each lower with each upper: from  a·x ≤ b (a_k>0) and
	// a'·x ≤ b' (a'_k<0) derive  (a/a_k − a'/a'_k)·x ≤ b/a_k − b'/a'_k,
	// scaled positive.
	for _, lo := range lowers {
		for _, hi := range uppers {
			cl := lo.Coeffs[k].Neg() // positive
			ch := hi.Coeffs[k]       // positive
			coeffs := make([]rational.Rat, s.NumVars)
			for j := 0; j < s.NumVars; j++ {
				// ch·lo + cl·hi eliminates x_k.
				coeffs[j] = ch.Mul(lo.Coeffs[j]).Add(cl.Mul(hi.Coeffs[j]))
			}
			bound := ch.Mul(lo.Bound).Add(cl.Mul(hi.Bound))
			coeffs[k] = rational.Zero
			out.Ineqs = append(out.Ineqs, Ineq{Coeffs: coeffs, Bound: bound})
		}
	}
	out.dedup()
	return out
}

// dedup drops duplicate and trivially-true inequalities and detects
// trivially-false ones (kept so IsEmpty sees them). Duplicates are found
// by comparing coefficients; the first occurrence is kept.
func (s *System) dedup() {
	kept := s.Ineqs[:0]
	for _, q := range s.Ineqs {
		allZero := true
		for _, c := range q.Coeffs {
			if !c.IsZero() {
				allZero = false
				break
			}
		}
		if allZero {
			if q.Bound.Sign() < 0 {
				// 0 ≤ negative: contradiction — keep one witness.
				kept = append(kept, q)
			}
			continue // 0 ≤ nonneg: trivially true
		}
		if !slices.ContainsFunc(kept, q.equal) {
			kept = append(kept, q)
		}
	}
	s.Ineqs = kept
}

// equal reports whether two inequalities over the same variables have
// equal coefficients and bounds.
func (q Ineq) equal(o Ineq) bool {
	return q.Bound.Equal(o.Bound) && slices.EqualFunc(q.Coeffs, o.Coeffs, rational.Rat.Equal)
}

// BoundsOn returns the tightest rational interval for variable k implied
// by inequalities whose only nonzero coefficient is at k, after the caller
// has substituted values for all other variables via Substitute. hasLo and
// hasHi report whether each side is bounded. If an inequality is
// contradictory (0 ≤ neg) the interval is reported empty via empty=true.
func (s *System) BoundsOn(k int) (lo, hi rational.Rat, hasLo, hasHi, empty bool) {
	for _, q := range s.Ineqs {
		c := q.Coeffs[k]
		others := false
		for j, cj := range q.Coeffs {
			if j != k && !cj.IsZero() {
				others = true
				break
			}
		}
		if others {
			continue
		}
		if c.IsZero() {
			if q.Bound.Sign() < 0 {
				empty = true
			}
			continue
		}
		v := q.Bound.Div(c)
		if c.Sign() > 0 {
			if !hasHi || v.Less(hi) {
				hi, hasHi = v, true
			}
		} else {
			if !hasLo || lo.Less(v) {
				lo, hasLo = v, true
			}
		}
	}
	if hasLo && hasHi && hi.Less(lo) {
		empty = true
	}
	return lo, hi, hasLo, hasHi, empty
}

// Substitute fixes variable k to value v, folding it into the bounds.
func (s *System) Substitute(k int, v rational.Rat) *System {
	out := NewSystem(s.NumVars)
	for _, q := range s.Ineqs {
		coeffs := make([]rational.Rat, s.NumVars)
		copy(coeffs, q.Coeffs)
		bound := q.Bound.Sub(coeffs[k].Mul(v))
		coeffs[k] = rational.Zero
		out.Ineqs = append(out.Ineqs, Ineq{Coeffs: coeffs, Bound: bound})
	}
	out.dedup()
	return out
}

// EnumerateIntegerPoints returns every integer point satisfying the
// system, in lexicographic order of (x_1, …, x_n). The system must be
// bounded in every variable; unbounded directions cause an error.
func (s *System) EnumerateIntegerPoints() ([][]int64, error) {
	var out [][]int64
	err := s.walkInteger(func(p []int64) bool {
		cp := make([]int64, len(p))
		copy(cp, p)
		out = append(out, cp)
		return true
	})
	return out, err
}

// HasIntegerPoint reports whether any integer point satisfies the system.
func (s *System) HasIntegerPoint() (bool, error) {
	found := false
	err := s.walkInteger(func([]int64) bool {
		found = true
		return false // stop
	})
	return found, err
}

// walkInteger enumerates integer points, calling visit for each; visit
// returning false stops the walk early.
func (s *System) walkInteger(visit func([]int64) bool) error {
	n := s.NumVars
	if n == 0 {
		// Empty variable set: the system is satisfiable iff no
		// contradictions remain.
		for _, q := range s.Ineqs {
			if q.Bound.Sign() < 0 {
				return nil
			}
		}
		visit(nil)
		return nil
	}
	// Build the elimination tower: tower[k] has variables x_1..x_k free.
	tower := make([]*System, n+1)
	tower[n] = s.Clone()
	for k := n; k > 1; k-- {
		tower[k-1] = tower[k].Eliminate(k - 1)
	}
	point := make([]int64, n)
	var rec func(k int, sys *System) (bool, error)
	rec = func(k int, sys *System) (bool, error) {
		// sys has x_1..x_{k-1} substituted; tower gives constraints with
		// inner vars eliminated. Bound x_k from the (k)-variable layer with
		// the outer substitutions applied.
		layer := tower[k+1]
		cur := layer
		for j := 0; j <= k-1; j++ {
			cur = cur.Substitute(j, rational.FromInt(point[j]))
		}
		lo, hi, hasLo, hasHi, empty := cur.BoundsOn(k)
		if empty {
			return true, nil
		}
		if !hasLo || !hasHi {
			return false, fmt.Errorf("polyhedron: variable x%d unbounded", k+1)
		}
		for v := lo.Ceil(); v <= hi.Floor(); v++ {
			point[k] = v
			if k == n-1 {
				if !visit(point) {
					return false, nil
				}
				continue
			}
			cont, err := rec(k+1, nil)
			if err != nil {
				return false, err
			}
			if !cont {
				return false, nil
			}
		}
		return true, nil
	}
	_, err := rec(0, nil)
	return err
}

// Satisfies reports whether integer point p satisfies every inequality.
func (s *System) Satisfies(p []int64) bool {
	if len(p) != s.NumVars {
		panic(fmt.Errorf("polyhedron: point has %d coords, system %d vars", len(p), s.NumVars))
	}
	for _, q := range s.Ineqs {
		sum := rational.Zero
		for j, c := range q.Coeffs {
			sum = sum.Add(c.Mul(rational.FromInt(p[j])))
		}
		if q.Bound.Less(sum) {
			return false
		}
	}
	return true
}

// String renders the system one inequality per line.
func (s *System) String() string {
	var lines []string
	for _, q := range s.Ineqs {
		lines = append(lines, q.String())
	}
	return strings.Join(lines, "\n")
}
