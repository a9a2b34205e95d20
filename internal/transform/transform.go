// Package transform implements Section IV's program transformation: given
// a nest and its partitioning space Ψ, it rewrites the loop into
//
//	forall I′_{y₁} … forall I′_{y_k}      (k = n − dim Ψ parallel levels)
//	  for I_{z₁} … for I_{z_g}            (g = dim Ψ sequential levels)
//	    extended statements + original body
//
// The forall indices are I′ = ā·ī for a basis {ā₁,…,ā_k} of the integer
// vectors orthogonal to Ψ (the paper's Ker(Ψ)); each forall point is one
// iteration block, and the sequential indices complete the ā to a
// unimodular T. Loop bounds for the new variables come from exact
// Fourier–Motzkin elimination, reproducing the max(...)/min(...) bounds
// of the paper's worked example L4′.
package transform

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"commfree/internal/intlin"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/polyhedron"
	"commfree/internal/space"
)

// BoundTerm is one affine candidate bound over the new loop variables
// that precede the bounded one, held exactly in integers: the bound is
// (Const + Σ Coeffs[j]·v_j) / Den, where Den ≥ 1 and the entries and Den
// share no common factor. A lower bound is the ceiling of that quotient,
// an upper bound its floor. The form is canonical: equal terms have equal
// fields.
type BoundTerm struct {
	Coeffs []int64 // length = index of the bounded variable
	Const  int64
	Den    int64
}

// scaleTerm returns the term (konst + Σ coeffs[j]·v_j)/den for a nonzero
// den, reduced to lowest terms with a positive denominator.
func scaleTerm(coeffs []int64, konst, den int64) BoundTerm {
	t := BoundTerm{Coeffs: slices.Clone(coeffs), Const: konst, Den: den}
	if den < 0 {
		for j, c := range t.Coeffs {
			t.Coeffs[j] = intlin.Neg(c)
		}
		t.Const, t.Den = intlin.Neg(konst), intlin.Neg(den)
	}
	g := intlin.GCDVec(append(slices.Clip(t.Coeffs), t.Const, t.Den))
	for j := range t.Coeffs {
		t.Coeffs[j] /= g
	}
	t.Const /= g
	t.Den /= g
	return t
}

// sum evaluates Const + Σ Coeffs[j]·outer[j], the term's numerator.
func (b *BoundTerm) sum(outer []int64) int64 {
	v := b.Const
	for j, c := range b.Coeffs {
		if c != 0 {
			v = intlin.MulAdd(v, c, outer[j])
		}
	}
	return v
}

// isConst reports whether the term ignores every variable.
func (b BoundTerm) isConst() bool {
	for _, c := range b.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// less reports whether constant terms b and o satisfy b < o.
func (b BoundTerm) less(o BoundTerm) bool {
	return intlin.Mul(b.Const, o.Den) < intlin.Mul(o.Const, b.Den)
}

// ratio renders num/den (den > 0) as the reduced "n" or "n/d".
func ratio(num, den int64) string {
	g := intlin.GCDVec([]int64{num, den})
	if den/g == 1 {
		return strconv.FormatInt(num/g, 10)
	}
	return fmt.Sprintf("%d/%d", num/g, den/g)
}

// render prints the term using the given variable names, each
// coefficient as the reduced rational it stands for.
func (b BoundTerm) render(names []string) string {
	var parts []string
	for j, c := range b.Coeffs {
		switch c {
		case 0:
		case b.Den:
			parts = append(parts, names[j])
		case -b.Den:
			parts = append(parts, "-"+names[j])
		default:
			parts = append(parts, ratio(c, b.Den)+"*"+names[j])
		}
	}
	if b.Const != 0 || len(parts) == 0 {
		parts = append(parts, ratio(b.Const, b.Den))
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

// VarBounds gives the lower (max of terms) and upper (min of terms)
// bounds of one new loop variable.
type VarBounds struct {
	Lower []BoundTerm
	Upper []BoundTerm
}

// Eval returns the integer range [lo, hi] at the given outer values
// (empty when hi < lo). It panics with intlin.ErrOverflow when a
// term's numerator does not fit in int64.
func (v *VarBounds) Eval(outer []int64) (lo, hi int64) {
	for i := range v.Lower {
		t := &v.Lower[i]
		c := t.sum(outer)
		if t.Den != 1 {
			c = intlin.CeilDiv(c, t.Den)
		}
		if i == 0 || c > lo {
			lo = c
		}
	}
	for i := range v.Upper {
		t := &v.Upper[i]
		c := t.sum(outer)
		if t.Den != 1 {
			c = intlin.FloorDiv(c, t.Den)
		}
		if i == 0 || c < hi {
			hi = c
		}
	}
	return lo, hi
}

// Transformed is the parallel execution form of a partitioned nest.
type Transformed struct {
	Nest *loop.Nest
	Psi  *space.Space
	// Q is a basis of the lattice Ψ^⊥ ∩ Zⁿ, one row per forall level,
	// in pivot order.
	Q [][]int64
	// K is the number of forall levels; G the number of sequential ones.
	K, G int
	// PivotCols are the y_j: the original index position each forall
	// variable is named after (0-based).
	PivotCols []int
	// InnerLevels are the z_i: the original level each sequential
	// variable iterates (0-based), or −1 for a sequential variable whose
	// row of T is not a unit row.
	InnerLevels []int
	// T maps original to new indices (J = T·I): the Q rows, then the
	// rows of the sequential variables. T is unimodular, so every
	// integer J inside the bounds is an iteration.
	T *intlin.Mat
	// Inv is T⁻¹, an integer matrix. Every original level that no
	// sequential variable iterates, pivots included, is recovered inside
	// the body by an extended statement, its row of Inv times J.
	Inv *intlin.Mat
	// Bounds[m] bounds new variable m in terms of variables 0..m-1.
	Bounds []VarBounds
	// Names of the new variables in loop order.
	Names []string

	// The enumerated forall space (see enumerate), read off part when
	// the loop was transformed for a partition.
	part       *partition.IterationPartition
	forallOnce sync.Once
	forall     [][]int64
	sizes      []int64
}

// Transform rewrites the nest for partitioning space psi, with Q the
// basis psi.OrthogonalComplementIntegerBasis.
func Transform(nest *loop.Nest, psi *space.Space) (*Transformed, error) {
	return TransformWithBasis(nest, psi, nil)
}

// OfPartition is Transform for a partition's nest, Ψ and Q, with the
// forall space read off the partition's blocks (IterationPartition.Forall)
// instead of walked: each forall point is one of its blocks.
func OfPartition(p *partition.IterationPartition) (*Transformed, error) {
	if err := p.Nest.Validate(); err != nil {
		return nil, err
	}
	tr, err := build(p.Nest, p.Psi, p.Q)
	if err != nil {
		return nil, err
	}
	tr.part = p
	return tr, nil
}

// TransformWithBasis is Transform with a caller-chosen basis Q of the
// lattice Ψ^⊥ ∩ Zⁿ (the paper picks {(1,1,0),(-1,0,1)} for L4; nil picks
// the canonical one), in pivot order: forall variable j is named after
// the j-th pivot column of Q's echelon form. Any other Q is refused.
func TransformWithBasis(nest *loop.Nest, psi *space.Space, q [][]int64) (*Transformed, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	n := nest.Depth()
	if psi.Ambient() != n {
		return nil, fmt.Errorf("transform: Ψ ambient %d != depth %d", psi.Ambient(), n)
	}
	lattice := psi.OrthogonalComplementIntegerBasis()
	if q == nil {
		q = lattice
	} else if len(q) != len(lattice) || slices.ContainsFunc(q, func(row []int64) bool { return len(row) != n }) ||
		!slices.Equal(intlin.FromRows(q).Hermite().A, intlin.FromRows(lattice).Hermite().A) {
		return nil, fmt.Errorf("transform: %v is not a basis of the lattice Ψ^⊥ ∩ Zⁿ, %v for Ψ = %s", q, lattice, psi)
	}
	return build(nest, psi, q)
}

// build transforms a validated nest for Ψ and a basis q of Ψ^⊥ ∩ Zⁿ.
func build(nest *loop.Nest, psi *space.Space, q [][]int64) (*Transformed, error) {
	n := nest.Depth()
	_, pivots := intlin.FromRows(q).RREF()
	tr := &Transformed{Nest: nest, Psi: psi, Q: q, K: len(q), G: n - len(q), PivotCols: pivots}
	if err := tr.complete(); err != nil {
		return nil, err
	}

	// Names: forall vars take the pivot index's name + "'", a sequential
	// var on a unit row keeps its level's name, any other takes w1, w2, …
	// (the prefix lengthened with w's until no level name starts with it).
	for _, y := range tr.PivotCols {
		tr.Names = append(tr.Names, nest.Levels[y].Name+"'")
	}
	fresh := "w"
	for slices.ContainsFunc(nest.Levels, func(l loop.Level) bool { return strings.HasPrefix(l.Name, fresh) }) {
		fresh += "w"
	}
	for i, z := range tr.InnerLevels {
		name := fresh + strconv.Itoa(i+1)
		if z >= 0 {
			name = nest.Levels[z].Name
		}
		tr.Names = append(tr.Names, name)
	}

	// Constraint system over J: original bounds with ī = T⁻¹·J, so a row
	// a·ī ≤ b becomes (a·T⁻¹)·J ≤ b.
	sys := polyhedron.NewSystem(n)
	for lvl, lv := range nest.Levels {
		// i_lvl − lower(ī) ≥ lower.Const and i_lvl − upper(ī) ≤ upper.Const.
		for _, side := range []struct {
			a     loop.Affine
			upper bool
		}{{lv.Lower, false}, {lv.Upper, true}} {
			jrow := make([]int64, n)
			for ii, a := range side.a.Coeffs {
				c := intlin.Neg(a)
				if ii == lvl {
					c = intlin.Add(c, 1)
				}
				for jj := range jrow {
					jrow[jj] = intlin.MulAdd(jrow[jj], c, tr.Inv.At(ii, jj))
				}
			}
			if side.upper {
				sys.AddLE(jrow, side.a.Const)
			} else {
				sys.AddGE(jrow, side.a.Const)
			}
		}
	}

	// Fourier–Motzkin tower: tower[m] constrains J_0..J_{m-1} only.
	tower := make([]*polyhedron.System, n+1)
	tower[n] = sys
	for m := n; m > 0; m-- {
		tower[m-1] = tower[m].Eliminate(m - 1)
	}
	tr.Bounds = make([]VarBounds, n)
	for m := 0; m < n; m++ {
		vb := &tr.Bounds[m]
		for _, q := range tower[m+1].Ineqs {
			c := q.Coeffs[m]
			if c == 0 {
				continue
			}
			// Σ_{j<m} a_j J_j + c·J_m ≤ b  ⇒  J_m ≤ (b − Σ a_j J_j)/c.
			coeffs := make([]int64, m)
			for j := range coeffs {
				coeffs[j] = intlin.Neg(q.Coeffs[j])
			}
			term := scaleTerm(coeffs, q.Bound, c)
			if c > 0 {
				vb.Upper = append(vb.Upper, term)
			} else {
				vb.Lower = append(vb.Lower, term)
			}
		}
		dedupTerms(&vb.Lower, true)
		dedupTerms(&vb.Upper, false)
	}

	return tr, nil
}

// complete extends Q to the unimodular T and sets InnerLevels and T⁻¹:
// with the paper's unit rows when they give |det T| = 1, with
// latticeRows otherwise.
func (tr *Transformed) complete() error {
	rows := unitCompletion(tr.Q, tr.Nest.Depth())
	inv := intlin.FromRows(rows).UnimodularInverse()
	if inv == nil {
		rows = append(rows[:tr.K], tr.latticeRows()...)
		if inv = intlin.FromRows(rows).UnimodularInverse(); inv == nil {
			return fmt.Errorf("transform: T = %v is not unimodular", rows)
		}
	}
	for _, w := range rows[tr.K:] {
		tr.InnerLevels = append(tr.InnerLevels, unitLevel(w))
	}
	tr.T, tr.Inv = intlin.FromRows(rows), inv
	return nil
}

// unitCompletion is the paper's completion of q to an n×n T: the unit
// rows e_z of the greedy earliest levels z whose e_z is not yet in the
// span, each iterated as itself. T is nonsingular, and an iteration's
// first nonzero difference to another of its block is at one of these
// levels, so a block runs in lexicographic order; but |det T| may
// exceed 1.
func unitCompletion(q [][]int64, n int) [][]int64 {
	rows := slices.Clone(q)
	for z := 0; z < n && len(rows) < n; z++ {
		unit := make([]int64, n)
		unit[z] = 1
		if intlin.FromRows(append(rows, unit)).Rank() > len(rows) {
			rows = append(rows, unit)
		}
	}
	return rows
}

// latticeRows returns G rows W that complete Q to a unimodular T and keep
// each block in lexicographic order. With W₀ the last G rows of V⁻¹ from
// Q's Smith form, [Q; W₀] is unimodular; W = X·W₀ for the unimodular X
// that makes W·Pᵀ lower triangular with a positive diagonal (P is Ψ's
// echelon basis), so for two iterations of a block, d = Pᵀ·c, the orders
// of d, c and W·d = (W·Pᵀ)·c agree. X comes from the Hermite form of
// [W₀·Pᵀ, columns reversed | W₀] over [0 | Q], rows reversed; the Q rows
// reduce W modulo Q, which changes no W·Pᵀ.
func (tr *Transformed) latticeRows() [][]int64 {
	n, k, g := tr.Nest.Depth(), tr.K, tr.G
	vi := intlin.SmithNormalForm(intlin.FromRows(tr.Q)).V.UnimodularInverse()
	p := intlin.FromRows(tr.Psi.IntegerBasis())
	aug := intlin.NewMat(g+k, g+n)
	for i := range g {
		w := vi.Row(k + i)
		for j, x := range p.MulVec(w) {
			aug.Set(i, g-1-j, x)
		}
		copy(aug.Row(i)[g:], w)
	}
	for i, q := range tr.Q {
		copy(aug.Row(g + i)[g:], q)
	}
	h := aug.Hermite()
	w := make([][]int64, g)
	for i := range w {
		w[i] = h.Row(g - 1 - i)[g:]
	}
	return w
}

// unitLevel returns u when row is the unit row e_u, else −1.
func unitLevel(row []int64) int {
	u := slices.Index(row, 1)
	for j, x := range row {
		if x != 0 && j != u {
			return -1
		}
	}
	return u
}

// dedupTerms drops duplicate terms and, among the purely constant terms,
// keeps only the binding one (largest for lower bounds, smallest for
// upper) — Fourier–Motzkin produces weaker shadows like 2 ≤ x alongside
// −1 ≤ x. A term that varies is kept unless an equal one already is; a
// repeated constant cannot change the binding one.
func dedupTerms(terms *[]BoundTerm, lower bool) {
	var out []BoundTerm
	bestConst := -1 // index into out of the binding constant term
	for _, t := range *terms {
		if !t.isConst() {
			if !slices.ContainsFunc(out, t.equal) {
				out = append(out, t)
			}
			continue
		}
		if bestConst < 0 {
			out = append(out, t)
			bestConst = len(out) - 1
			continue
		}
		if cur := out[bestConst]; (lower && cur.less(t)) || (!lower && t.less(cur)) {
			out[bestConst] = t
		}
	}
	*terms = out
}

// equal reports whether two terms over the same variables are the same
// affine function (the scaled form is canonical).
func (b BoundTerm) equal(o BoundTerm) bool {
	return b.Const == o.Const && b.Den == o.Den && slices.Equal(b.Coeffs, o.Coeffs)
}

// Original recovers the original iteration ī = T⁻¹·J from a full
// new-variable point.
func (t *Transformed) Original(j []int64) []int64 { return t.Inv.MulVec(j) }

// NewPoint maps an original iteration to new coordinates J = T·ī.
func (t *Transformed) NewPoint(orig []int64) []int64 { return t.T.MulVec(orig) }

// Visit enumerates the transformed loop: body is called for every
// iteration, forall points in lexicographic order and, inside one forall
// point (block), iterations in lexicographic original order. Both slices
// are buffers Visit reuses: body must neither modify them nor keep them
// without a copy.
//
// The bounds are exact: every constraint of the nest bounds the last new
// variable it involves, and T is unimodular, so every point the walk
// reaches is an iteration and each step is one.
func (t *Transformed) Visit(body func(forall, orig []int64)) {
	n := t.Nest.Depth()
	if n == 0 {
		return
	}
	last := n - 1
	point, orig := make([]int64, n), make([]int64, n)
	var rec func(m int)
	rec = func(m int) {
		lo, hi := t.Bounds[m].Eval(point[:m])
		if m < last {
			for v := lo; v <= hi; v++ {
				point[m] = v
				rec(m + 1)
			}
			return
		}
		if lo > hi {
			return
		}
		// The innermost level moves T⁻¹·J by T⁻¹'s last column per step.
		point[last] = lo
		for i := range orig {
			orig[i] = (&BoundTerm{Coeffs: t.Inv.Row(i)}).sum(point)
		}
		for {
			body(point[:t.K], orig)
			if point[last] == hi {
				return
			}
			point[last]++
			for i := range orig {
				orig[i] = intlin.Add(orig[i], t.Inv.At(i, last))
			}
		}
	}
	rec(0)
}

// enumerate walks the forall space on first use: the forall points that
// hold at least one iteration, in Visit order, with their iteration
// counts. Everything that asks how the loop splits into blocks — the
// block list, workloads, the wire views — reads this one enumeration.
// The points share one backing array. A loop transformed for a
// partition reads them off its blocks and never walks.
func (t *Transformed) enumerate() {
	t.forallOnce.Do(func() {
		if t.part != nil {
			t.forall, t.sizes = t.part.Forall()
			return
		}
		k := t.K
		flat := []int64{} // never nil: the K = 0 point is [] on the wire, not null
		t.Visit(func(forall, _ []int64) {
			if last := len(t.sizes) - 1; last < 0 || !slices.Equal(flat[last*k:], forall) {
				flat = append(flat, forall...)
				t.sizes = append(t.sizes, 0)
			}
			t.sizes[len(t.sizes)-1]++
		})
		t.forall = make([][]int64, len(t.sizes))
		for i := range t.forall {
			t.forall[i] = flat[i*k : (i+1)*k : (i+1)*k]
		}
	})
}

// Partition is the partition the loop was transformed for, nil if walked.
func (t *Transformed) Partition() *partition.IterationPartition { return t.part }

// ForallPoints returns the nonempty forall points in lexicographic
// order. The slice is shared by every caller and must not be modified.
func (t *Transformed) ForallPoints() [][]int64 {
	t.enumerate()
	return t.forall
}

// BlockSizes returns the iteration count of every forall point, in
// ForallPoints order. The slice is shared and must not be modified.
func (t *Transformed) BlockSizes() []int64 {
	t.enumerate()
	return t.sizes
}

// String pretty-prints the transformed loop in the paper's style.
func (t *Transformed) String() string {
	var b strings.Builder
	indent := ""
	for m := 0; m < t.Nest.Depth(); m++ {
		kw := "for"
		if m < t.K {
			kw = "forall"
		}
		lo := renderBoundList(t.Bounds[m].Lower, t.Names[:m], "max")
		hi := renderBoundList(t.Bounds[m].Upper, t.Names[:m], "min")
		fmt.Fprintf(&b, "%s%s %s = %s to %s\n", indent, kw, t.Names[m], lo, hi)
		indent += "  "
	}
	e := 0
	for lvl, lv := range t.Nest.Levels {
		if !slices.Contains(t.InnerLevels, lvl) {
			e++
			fmt.Fprintf(&b, "%sE%d: %s := %s\n", indent, e, lv.Name, BoundTerm{Coeffs: t.Inv.Row(lvl), Den: 1}.render(t.Names))
		}
	}
	fmt.Fprintf(&b, "%s[loop body]\n", indent)
	for m := t.Nest.Depth() - 1; m >= 0; m-- {
		indent = strings.Repeat("  ", m)
		kw := "end"
		if m < t.K {
			kw = "end-forall"
		}
		fmt.Fprintf(&b, "%s%s\n", indent, kw)
	}
	return b.String()
}

func renderBoundList(terms []BoundTerm, names []string, fn string) string {
	if len(terms) == 1 {
		return terms[0].render(names)
	}
	var parts []string
	for _, t := range terms {
		parts = append(parts, t.render(names))
	}
	return fn + "(" + strings.Join(parts, ", ") + ")"
}
