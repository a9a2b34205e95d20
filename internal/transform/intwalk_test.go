package transform

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
	"commfree/internal/polyhedron"
	"commfree/internal/rational"
	"commfree/internal/space"
)

// ratTerm and ratBounds are the rational bound form the integer one
// replaced: c + Σ Coeffs[j]·v_j with rational coefficients, evaluated in
// rational arithmetic and rounded at the end.
type ratTerm struct {
	coeffs []rational.Rat
	konst  rational.Rat
}

func (b ratTerm) eval(outer []int64) rational.Rat {
	v := b.konst
	for j, c := range b.coeffs {
		if !c.IsZero() {
			v = v.Add(c.Mul(rational.FromInt(outer[j])))
		}
	}
	return v
}

func (b ratTerm) render(names []string) string {
	var parts []string
	for j, c := range b.coeffs {
		switch {
		case c.IsZero():
		case c.Equal(rational.One):
			parts = append(parts, names[j])
		case c.Equal(rational.FromInt(-1)):
			parts = append(parts, "-"+names[j])
		default:
			parts = append(parts, c.String()+"*"+names[j])
		}
	}
	if !b.konst.IsZero() || len(parts) == 0 {
		parts = append(parts, b.konst.String())
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

type ratBounds struct{ lower, upper []ratTerm }

func (v ratBounds) eval(outer []int64) (lo, hi int64) {
	for i, t := range v.lower {
		if c := t.eval(outer).Ceil(); i == 0 || c > lo {
			lo = c
		}
	}
	for i, t := range v.upper {
		if c := t.eval(outer).Floor(); i == 0 || c < hi {
			hi = c
		}
	}
	return lo, hi
}

// ratReference derives a transformed loop's bounds again, the rational
// way: the original bounds through T⁻¹, the Fourier–Motzkin tower, every
// term divided out in rationals and deduplicated as rationals.
func ratReference(tr *Transformed) []ratBounds {
	n := tr.Nest.Depth()
	sys := polyhedron.NewSystem(n)
	for lvl, lv := range tr.Nest.Levels {
		for _, side := range []struct {
			a     loop.Affine
			upper bool
		}{{lv.Lower, false}, {lv.Upper, true}} {
			row := make([]rational.Rat, n)
			for jj := range row {
				sum := tr.TInv.At(lvl, jj)
				for ii, c := range side.a.Coeffs {
					sum = sum.Sub(rational.FromInt(c).Mul(tr.TInv.At(ii, jj)))
				}
				row[jj] = sum
			}
			if side.upper {
				sys.AddLE(row, rational.FromInt(side.a.Const))
			} else {
				sys.AddGE(row, rational.FromInt(side.a.Const))
			}
		}
	}
	tower := make([]*polyhedron.System, n+1)
	tower[n] = sys
	for m := n; m > 0; m-- {
		tower[m-1] = tower[m].Eliminate(m - 1)
	}
	out := make([]ratBounds, n)
	for m := range out {
		for _, q := range tower[m+1].Ineqs {
			c := q.Coeffs[m]
			if c.IsZero() {
				continue
			}
			t := ratTerm{coeffs: make([]rational.Rat, m), konst: q.Bound.Div(c)}
			for j := range t.coeffs {
				t.coeffs[j] = q.Coeffs[j].Div(c).Neg()
			}
			if c.Sign() > 0 {
				out[m].upper = append(out[m].upper, t)
			} else {
				out[m].lower = append(out[m].lower, t)
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
		return a.konst.Equal(b.konst) && slices.EqualFunc(a.coeffs, b.coeffs, rational.Rat.Equal)
	}
	for _, t := range terms {
		if !slices.ContainsFunc(t.coeffs, func(c rational.Rat) bool { return !c.IsZero() }) {
			switch {
			case best < 0:
				out = append(out, t)
				best = len(out) - 1
			case lower && out[best].konst.Less(t.konst), !lower && t.konst.Less(out[best].konst):
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
func ratWalk(tr *Transformed, bounds []ratBounds, eval func(m int, outer []int64, lo, hi int64), body func(forall, orig []int64)) {
	n := tr.Nest.Depth()
	point := make([]int64, n)
	var rec func(m int)
	rec = func(m int) {
		if m == n {
			orig := make([]int64, n)
			for i := range orig {
				v := rational.Zero
				for c := range point {
					v = v.Add(tr.TInv.At(i, c).Mul(rational.FromInt(point[c])))
				}
				if !v.IsInt() {
					return
				}
				orig[i] = v.Int()
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

// walkNests is the sweep: L1–L5, the corpus and 300 generated nests.
func walkNests() []*loop.Nest {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(30))
	for i := 0; i < 300; i++ {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	return nests
}

// checkWalk compares a Transformed with the rational reference: every
// bound the reference walk evaluates, every iteration it visits and in
// which order, the forall enumeration, and the pseudocode.
func checkWalk(t *testing.T, what string, tr *Transformed) {
	t.Helper()
	bounds := ratReference(tr)
	type visit struct{ forall, orig []int64 }
	var want []visit
	var points [][]int64
	var sizes []int64
	ratWalk(tr, bounds, func(m int, outer []int64, lo, hi int64) {
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
// and the zero Ψ, plus a non-unimodular T.
func TestIntegerWalkIsTheRationalOne(t *testing.T) {
	for ni, nest := range walkNests() {
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

	nest := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 6)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 6)},
		},
		Body: []*loop.Statement{{
			Write: loop.Ref{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
		}},
	}
	tr, err := Transform(nest, space.SpanInts(2, []int64{2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(tr.inv, func(row BoundTerm) bool { return row.Den > 1 }) {
		t.Fatalf("T⁻¹ = %v is integral; the case needs a non-unimodular T", tr.TInv)
	}
	checkWalk(t, "non-unimodular", tr)
}

// Two nests whose Fourier–Motzkin terms are exact rationals in int64 but
// whose integer form is not (the DSL reads numbers as float64, so each
// constant is a power-of-two multiple plus a small part). Both have a
// (3, 2) dependence, so non-duplicate Ψ = span{(3, 2)}, i′ = 2i − 3j,
// and the lower bound on i is ½·i′ + c.
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

// TestOverflowingBoundTermsAreRefused: where the integer form of a bound
// does not fit, transform panics with rational.ErrOverflow — when it
// scales the terms, or when the walk evaluates one — and never hands out
// a wrapped bound or count. The rational reference shows the terms
// themselves fit.
func TestOverflowingBoundTermsAreRefused(t *testing.T) {
	psi := func(nest *loop.Nest) *space.Space {
		t.Helper()
		res, err := partition.Compute(nest, partition.NonDuplicate)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Psi.Equal(space.SpanInts(2, []int64{3, 2})) {
			t.Fatalf("Ψ = %s, want span{(3,2)}", res.Psi)
		}
		return res.Psi
	}

	walkNest := lang.MustParse(walkOverflowNest)
	tr, err := Transform(walkNest, psi(walkNest))
	if err != nil {
		t.Fatal(err)
	}
	ratReference(tr) // the rational terms fit
	var blocks int
	err = rational.Guard(func() { blocks = len(tr.ForallPoints()) })
	if !errors.Is(err, rational.ErrOverflow) {
		t.Errorf("walk: %d blocks (err %v), want rational.ErrOverflow", blocks, err)
	}

	// Same Ψ, so the same T: the rational terms fit here too.
	scaledNest := lang.MustParse(scaledOverflowNest)
	ratReference(&Transformed{Nest: scaledNest, TInv: tr.TInv})
	err = rational.Guard(func() { tr, err = Transform(scaledNest, psi(scaledNest)) })
	if !errors.Is(err, rational.ErrOverflow) {
		t.Errorf("scaled: Transform err = %v, want rational.ErrOverflow", err)
	}
}
