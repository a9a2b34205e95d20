package transform

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"commfree/internal/intlin"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/space"
)

// ratTerm and ratBounds are the rational bound form the integer one
// replaced: c + Σ Coeffs[j]·v_j with math/big rational coefficients,
// evaluated in rational arithmetic and rounded at the end.
type ratTerm struct {
	coeffs []*big.Rat
	konst  *big.Rat
}

func (b ratTerm) eval(outer []int64) *big.Rat {
	v := new(big.Rat).Set(b.konst)
	for j, c := range b.coeffs {
		v.Add(v, new(big.Rat).Mul(c, big.NewRat(outer[j], 1)))
	}
	return v
}

func (b ratTerm) render(names []string) string {
	var parts []string
	for j, c := range b.coeffs {
		switch {
		case c.Sign() == 0:
		case c.Cmp(big.NewRat(1, 1)) == 0:
			parts = append(parts, names[j])
		case c.Cmp(big.NewRat(-1, 1)) == 0:
			parts = append(parts, "-"+names[j])
		default:
			parts = append(parts, c.RatString()+"*"+names[j])
		}
	}
	if b.konst.Sign() != 0 || len(parts) == 0 {
		parts = append(parts, b.konst.RatString())
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			out += " - " + p[1:]
		} else {
			out += " + " + p
		}
	}
	return out
}

// floorRat and ceilRat round a rational down and up.
func floorRat(x *big.Rat) int64 {
	return new(big.Int).Div(x.Num(), x.Denom()).Int64() // Euclidean: a floor for den > 0
}

func ceilRat(x *big.Rat) int64 { return -floorRat(new(big.Rat).Neg(x)) }

type ratBounds struct{ lower, upper []ratTerm }

func (v ratBounds) eval(outer []int64) (lo, hi int64) {
	for i, t := range v.lower {
		if c := ceilRat(t.eval(outer)); i == 0 || c > lo {
			lo = c
		}
	}
	for i, t := range v.upper {
		if c := floorRat(t.eval(outer)); i == 0 || c < hi {
			hi = c
		}
	}
	return lo, hi
}

// ratIneq is Σ coeffs·x ≤ bound over the rationals.
type ratIneq struct {
	coeffs []*big.Rat
	bound  *big.Rat
}

func (q ratIneq) equal(o ratIneq) bool {
	return q.bound.Cmp(o.bound) == 0 && slices.EqualFunc(q.coeffs, o.coeffs, func(a, b *big.Rat) bool { return a.Cmp(b) == 0 })
}

// ratEliminate is Fourier–Motzkin over the rationals, as the rational
// polyhedron did it: every lower/upper pair combined with the
// coefficients' magnitudes, no rescaling, exact duplicates and 0 ≤
// nonnegative rows dropped.
func ratEliminate(sys []ratIneq, k int) []ratIneq {
	var out, lowers, uppers []ratIneq
	for _, q := range sys {
		switch q.coeffs[k].Sign() {
		case 0:
			out = append(out, q)
		case 1:
			uppers = append(uppers, q)
		default:
			lowers = append(lowers, q)
		}
	}
	for _, lo := range lowers {
		for _, hi := range uppers {
			cl, ch := new(big.Rat).Neg(lo.coeffs[k]), hi.coeffs[k]
			comb := func(a, b *big.Rat) *big.Rat {
				return new(big.Rat).Add(new(big.Rat).Mul(ch, a), new(big.Rat).Mul(cl, b))
			}
			q := ratIneq{coeffs: make([]*big.Rat, len(lo.coeffs)), bound: comb(lo.bound, hi.bound)}
			for j := range q.coeffs {
				q.coeffs[j] = comb(lo.coeffs[j], hi.coeffs[j])
			}
			out = append(out, q)
		}
	}
	var kept []ratIneq
	for _, q := range out {
		zero := !slices.ContainsFunc(q.coeffs, func(c *big.Rat) bool { return c.Sign() != 0 })
		if !(zero && q.bound.Sign() >= 0) && !slices.ContainsFunc(kept, q.equal) {
			kept = append(kept, q)
		}
	}
	return kept
}

// ratInverse is T⁻¹ over the rationals, read from the integer matrix
// and checked against T: T·T⁻¹ must be the identity.
func ratInverse(t *testing.T, tr *Transformed) [][]*big.Rat {
	t.Helper()
	n := tr.Nest.Depth()
	inv := make([][]*big.Rat, n)
	for i := range inv {
		inv[i] = make([]*big.Rat, n)
		for c, x := range tr.Inv.Row(i) {
			inv[i][c] = big.NewRat(x, 1)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := new(big.Rat)
			for c := 0; c < n; c++ {
				sum.Add(sum, new(big.Rat).Mul(big.NewRat(tr.T.At(i, c), 1), inv[c][j]))
			}
			want := big.NewRat(0, 1)
			if i == j {
				want.SetInt64(1)
			}
			if sum.Cmp(want) != 0 {
				t.Fatalf("(T·T⁻¹)[%d][%d] = %s", i, j, sum.RatString())
			}
		}
	}
	return inv
}

// ratReference derives a transformed loop's bounds again, the rational
// way: the original bounds through T⁻¹, the Fourier–Motzkin tower, every
// term divided out in rationals and deduplicated as rationals.
func ratReference(t *testing.T, tr *Transformed) []ratBounds {
	t.Helper()
	n := tr.Nest.Depth()
	tinv := ratInverse(t, tr)
	var sys []ratIneq
	for lvl, lv := range tr.Nest.Levels {
		for _, side := range []struct {
			a     loop.Affine
			upper bool
		}{{lv.Lower, false}, {lv.Upper, true}} {
			q := ratIneq{coeffs: make([]*big.Rat, n), bound: big.NewRat(side.a.Const, 1)}
			for jj := range q.coeffs {
				sum := new(big.Rat).Set(tinv[lvl][jj])
				for ii, c := range side.a.Coeffs {
					sum.Sub(sum, new(big.Rat).Mul(big.NewRat(c, 1), tinv[ii][jj]))
				}
				q.coeffs[jj] = sum
			}
			if !side.upper { // ≥ as the negated ≤
				for _, c := range append(q.coeffs, q.bound) {
					c.Neg(c)
				}
			}
			sys = append(sys, q)
		}
	}
	tower := make([][]ratIneq, n+1)
	tower[n] = sys
	for m := n; m > 0; m-- {
		tower[m-1] = ratEliminate(tower[m], m-1)
	}
	out := make([]ratBounds, n)
	for m := range out {
		for _, q := range tower[m+1] {
			c := q.coeffs[m]
			if c.Sign() == 0 {
				continue
			}
			term := ratTerm{coeffs: make([]*big.Rat, m), konst: new(big.Rat).Quo(q.bound, c)}
			for j := range term.coeffs {
				term.coeffs[j] = new(big.Rat).Neg(new(big.Rat).Quo(q.coeffs[j], c))
			}
			if c.Sign() > 0 {
				out[m].upper = append(out[m].upper, term)
			} else {
				out[m].lower = append(out[m].lower, term)
			}
		}
		out[m].lower = ratDedup(out[m].lower, true)
		out[m].upper = ratDedup(out[m].upper, false)
	}
	return out
}

func ratDedup(terms []ratTerm, lower bool) []ratTerm {
	var out []ratTerm
	best := -1
	equal := func(a, b ratTerm) bool {
		return ratIneq{a.coeffs, a.konst}.equal(ratIneq{b.coeffs, b.konst})
	}
	for _, t := range terms {
		if !slices.ContainsFunc(t.coeffs, func(c *big.Rat) bool { return c.Sign() != 0 }) {
			switch {
			case best < 0:
				out = append(out, t)
				best = len(out) - 1
			case lower && out[best].konst.Cmp(t.konst) < 0, !lower && t.konst.Cmp(out[best].konst) < 0:
				out[best] = t
			}
			continue
		}
		if !slices.ContainsFunc(out, func(o ratTerm) bool { return equal(o, t) }) {
			out = append(out, t)
		}
	}
	return out
}

// ratWalk is the rational Visit: it walks the bounds, recovers each
// original point through the rational T⁻¹ and keeps it when it is
// integral and inside the nest. Every bound evaluation goes to eval, every
// iteration to body.
func ratWalk(t *testing.T, tr *Transformed, bounds []ratBounds, eval func(m int, outer []int64, lo, hi int64), body func(forall, orig []int64)) {
	n := tr.Nest.Depth()
	tinv := ratInverse(t, tr)
	point := make([]int64, n)
	var rec func(m int)
	rec = func(m int) {
		if m == n {
			orig := make([]int64, n)
			for i := range orig {
				v := new(big.Rat)
				for c := range point {
					v.Add(v, new(big.Rat).Mul(tinv[i][c], big.NewRat(point[c], 1)))
				}
				if !v.IsInt() {
					return
				}
				orig[i] = v.Num().Int64()
			}
			for lvl, lv := range tr.Nest.Levels {
				if orig[lvl] < lv.Lower.Eval(orig) || orig[lvl] > lv.Upper.Eval(orig) {
					return
				}
			}
			body(point[:tr.K], orig)
			return
		}
		lo, hi := bounds[m].eval(point[:m])
		eval(m, point[:m], lo, hi)
		for v := lo; v <= hi; v++ {
			point[m] = v
			rec(m + 1)
		}
	}
	if n > 0 {
		rec(0)
	}
}

// checkWalk compares a Transformed with the rational reference: every
// bound the reference walk evaluates, every iteration it visits and in
// which order, the forall enumeration, and the pseudocode.
func checkWalk(t *testing.T, what string, tr *Transformed) {
	t.Helper()
	bounds := ratReference(t, tr)
	type visit struct{ forall, orig []int64 }
	var want []visit
	var points [][]int64
	var sizes []int64
	ratWalk(t, tr, bounds, func(m int, outer []int64, lo, hi int64) {
		if glo, ghi := tr.Bounds[m].Eval(outer); glo != lo || ghi != hi {
			t.Fatalf("%s: level %d at %v: integer bounds [%d, %d], rational [%d, %d]\n%s", what, m, outer, glo, ghi, lo, hi, tr)
		}
	}, func(forall, orig []int64) {
		want = append(want, visit{slices.Clone(forall), orig})
		if len(points) == 0 || !slices.Equal(points[len(points)-1], forall) {
			points = append(points, slices.Clone(forall))
			sizes = append(sizes, 0)
		}
		sizes[len(sizes)-1]++
	})
	i := 0
	tr.Visit(func(forall, orig []int64) {
		if i >= len(want) || !slices.Equal(forall, want[i].forall) || !slices.Equal(orig, want[i].orig) {
			t.Fatalf("%s: visit %d is (%v, %v), the rational walk's is %v\n%s", what, i, forall, orig, want[min(i, len(want)-1)], tr)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("%s: %d visits, the rational walk makes %d\n%s", what, i, len(want), tr)
	}
	if len(points) == 0 {
		points = [][]int64{}
	}
	if got := tr.ForallPoints(); !slices.EqualFunc(got, points, slices.Equal) || !slices.Equal(tr.BlockSizes(), sizes) {
		t.Fatalf("%s: forall points %v sized %v, the rational walk's %v sized %v", what, got, tr.BlockSizes(), points, sizes)
	}
	names := tr.Names
	for m := range bounds {
		for k, side := range [][2][]string{{renderAll(bounds[m].lower, names[:m]), renderInts(tr.Bounds[m].Lower, names[:m])}, {renderAll(bounds[m].upper, names[:m]), renderInts(tr.Bounds[m].Upper, names[:m])}} {
			if !slices.Equal(side[0], side[1]) {
				t.Fatalf("%s: level %d side %d renders %q, the rational terms %q", what, m, k, side[1], side[0])
			}
		}
	}
}

func renderAll(terms []ratTerm, names []string) []string {
	out := []string{}
	for _, t := range terms {
		out = append(out, t.render(names))
	}
	return out
}

func renderInts(terms []BoundTerm, names []string) []string {
	out := []string{}
	for _, t := range terms {
		out = append(out, t.render(names))
	}
	return out
}

// TestIntegerWalkIsTheRationalOne pins the integer bound form to the
// rational one it replaced, over the sweep under every coset strategy
// and the zero Ψ, plus the probe nests whose T the unimodular completion
// moved (probeNests checks their det ±1).
func TestIntegerWalkIsTheRationalOne(t *testing.T) {
	for ni, nest := range sweep(30) {
		pc, err := partition.NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("nest %d: %v\n%s", ni, err, nest)
		}
		psis := []*space.Space{space.Zero(nest.Depth())}
		dup := map[string]bool{pc.Index.Arrays[0]: true}
		for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
			partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Selective} {
			res, err := pc.Compute(strat, dup, 0)
			if err != nil {
				t.Fatalf("nest %d %s: %v", ni, strat, err)
			}
			psis = append(psis, res.Psi)
		}
		for _, psi := range psis {
			tr, err := Transform(nest, psi)
			if err != nil {
				t.Fatalf("nest %d Ψ = %s: %v", ni, psi, err)
			}
			checkWalk(t, fmt.Sprintf("nest %d Ψ = %s", ni, psi), tr)
		}
	}

	for _, pn := range probeNests(t) {
		checkWalk(t, fmt.Sprintf("formerly non-unimodular nest %d", pn.index), pn.tr)
	}
}

// Two nests whose Fourier–Motzkin terms are exact rationals in int64 but
// whose integer arithmetic is not (the DSL reads numbers as float64, so
// each constant is a power-of-two multiple plus a small part). Both have
// a (3, 2) dependence, so non-duplicate Ψ = span{(3, 2)} and i′ = 2i − 3j.
// The constants were chosen against the det-3 T = [[2 −3] [1 0]] of the
// greedy unit rows, whose lower bound on i was ½·i′ + c; under the
// unimodular T both already leave int64 in Fourier–Motzkin elimination.
var (
	// scaledOverflowNest has c = 5188146770730811383: the term fits, its
	// numerator over the denominator 2, i′ + 2c, does not at any i′.
	scaledOverflowNest = fmt.Sprintf("for i = %d - 2 to %d + 1\n  for j = %d - 6 to %d - 4\n    A[i, j] = A[i-3, j-2] + 1\n  end\nend\n",
		1<<59, 1<<59, 3<<60, 3<<60)
	// walkOverflowNest has c = 2⁶² − 4: the scaled term fits, but its
	// numerator i′ + 2⁶³ − 8 leaves int64 at every i′ ≥ 8 the walk visits.
	walkOverflowNest = fmt.Sprintf("for i = %d + 2 to %d + 5\n  for j = %d + 168 to %d + 170\n    A[i, j] = A[i-3, j-2] + 1\n  end\nend\n",
		1<<62, 1<<62, 3074457345618258432, 3074457345618258432)
)

// fitsInt64 reports whether every coefficient of every term is a ratio
// of int64s: the rational bounds themselves are representable.
func fitsInt64(bounds []ratBounds) bool {
	for _, vb := range bounds {
		for _, t := range append(vb.lower, vb.upper...) {
			for _, x := range append(t.coeffs, t.konst) {
				if !x.Num().IsInt64() || !x.Denom().IsInt64() {
					return false
				}
			}
		}
	}
	return true
}

// refused runs f and returns the ErrOverflow it panics with, if any.
func refused(f func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && errors.Is(e, intlin.ErrOverflow) {
				err = e
				return
			}
			panic(p)
		}
	}()
	f()
	return nil
}

// TestOverflowingBoundTermsAreRefused: where the integer form of a bound
// does not fit, transform panics with intlin.ErrOverflow — here while
// Fourier–Motzkin combines the constraints over the new variables; the
// walk's own steps are TestWalkArithmeticIsChecked's — and never hands
// out a wrapped bound or count. The rational reference shows the terms
// themselves fit.
func TestOverflowingBoundTermsAreRefused(t *testing.T) {
	psi := func(nest *loop.Nest) *space.Space {
		t.Helper()
		res, err := partition.Compute(nest, partition.NonDuplicate)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Psi.Equal(space.Span(2, []int64{3, 2})) {
			t.Fatalf("Ψ = %s, want span{(3,2)}", res.Psi)
		}
		return res.Psi
	}
	// The T of Ψ = span{(3,2)}, from a nest small enough to transform.
	small, err := Transform(lang.MustParse("for i = 1 to 4\n  for j = 1 to 4\n    A[i, j] = A[i-3, j-2] + 1\n  end\nend\n"), space.Span(2, []int64{3, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{walkOverflowNest, scaledOverflowNest} {
		nest := lang.MustParse(src)
		if !fitsInt64(ratReference(t, &Transformed{Nest: nest, T: small.T, Inv: small.Inv})) {
			t.Fatalf("the rational bound terms leave int64:\n%s", src)
		}
		var blocks int
		err := refused(func() {
			tr, err := Transform(nest, psi(nest))
			if err != nil {
				t.Fatal(err)
			}
			blocks = len(tr.ForallPoints())
		})
		if !errors.Is(err, intlin.ErrOverflow) {
			t.Errorf("%d blocks (err %v), want intlin.ErrOverflow:\n%s", blocks, err, src)
		}
	}
}

// TestWalkArithmeticIsChecked: the walk's own integer steps — a term's
// numerator in Eval, T⁻¹·J stepped along the innermost level — refuse a value outside int64 instead of wrapping.
func TestWalkArithmeticIsChecked(t *testing.T) {
	konst := func(c int64) []BoundTerm { return []BoundTerm{{Coeffs: []int64{}, Const: c, Den: 1}} }
	vb := VarBounds{Lower: []BoundTerm{{Coeffs: []int64{3}, Const: math.MaxInt64 - 2, Den: 2}}, Upper: konst(0)}
	if err := refused(func() { vb.Eval([]int64{1}) }); !errors.Is(err, intlin.ErrOverflow) {
		t.Errorf("Eval of a numerator past int64: err %v, want intlin.ErrOverflow", err)
	}
	// One level, J from 1 to 3, T⁻¹ = (2⁶²): the index 2⁶² at J = 1
	// fits, the step to J = 2 does not.
	tr := &Transformed{Nest: lang.MustParse("for i = 1 to 3\n  A[i] = 1\nend\n"),
		Bounds: []VarBounds{{Lower: konst(1), Upper: konst(3)}},
		Inv:    intlin.FromRows([][]int64{{1 << 62}})}
	visits := 0
	if err := refused(func() { tr.Visit(func(_, _ []int64) { visits++ }) }); !errors.Is(err, intlin.ErrOverflow) || visits != 1 {
		t.Errorf("Visit stepping a numerator past int64: %d visits, err %v; want 1 and intlin.ErrOverflow", visits, err)
	}
}
