// Package transform implements Section IV's program transformation: given
// a nest and its partitioning space Ψ, it rewrites the loop into
//
//	forall I′_{y₁} … forall I′_{y_k}      (k = n − dim Ψ parallel levels)
//	  for I_{z₁} … for I_{z_g}            (g = dim Ψ sequential levels)
//	    extended statements + original body
//
// The forall indices are I′ = ā·ī for the gcd-normalized integer basis
// {ā₁,…,ā_k} of the orthogonal complement of Ψ (the paper's Ker(Ψ));
// each forall point is one iteration block. Loop bounds for the new
// variables come from exact Fourier–Motzkin elimination, reproducing the
// max(...)/min(...) bounds of the paper's worked example L4′.
package transform

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"commfree/internal/intlin"
	"commfree/internal/loop"
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

// ExtendedStatement recovers one original index inside the loop body:
// its row of T⁻¹ in the integer form, Index = Σ Coeffs[j]·J_j / Den over
// all n new variables (Const is 0). A point whose sum Den does not
// divide has no integral preimage (only when T is not unimodular).
type ExtendedStatement struct {
	OrigLevel int // which original index this computes
	BoundTerm
}

// Transformed is the parallel execution form of a partitioned nest.
type Transformed struct {
	Nest *loop.Nest
	Psi  *space.Space
	// Q is the integer basis of the orthogonal complement, one row per
	// forall level, in pivot order.
	Q [][]int64
	// K is the number of forall levels; G the number of sequential ones.
	K, G int
	// PivotCols are the y_j: the original index position each forall
	// variable is named after (0-based).
	PivotCols []int
	// InnerLevels are the z_i: original index levels iterated sequentially
	// inside a block (0-based, increasing).
	InnerLevels []int
	// T maps original to new indices (J = T·I): the Q rows, then the unit
	// rows of the inner indices.
	T *intlin.Mat
	// inv holds T⁻¹'s rows, each over its lcm denominator, so Original is
	// integer arithmetic.
	inv []BoundTerm
	// Bounds[m] bounds new variable m in terms of variables 0..m-1.
	Bounds []VarBounds
	// Extended lists the extended statements (one per original index that
	// is neither a forall pivot nor an inner index... i.e. all non-inner
	// indices, including pivots, since the body needs every original
	// index value).
	Extended []ExtendedStatement
	// Names of the new variables in loop order.
	Names []string

	// The enumerated forall space (see enumerate).
	forallOnce sync.Once
	forall     [][]int64
	sizes      []int64
}

// Transform rewrites the nest for partitioning space psi, deriving the
// complement basis automatically.
func Transform(nest *loop.Nest, psi *space.Space) (*Transformed, error) {
	return TransformWithBasis(nest, psi, psi.OrthogonalComplementIntegerBasis())
}

// TransformWithBasis is Transform with a caller-chosen integer basis Q of
// the orthogonal complement (the paper picks {(1,1,0),(-1,0,1)} for L4;
// the canonical RREF basis may differ by sign). Each row must be
// orthogonal to Ψ and the rows must be linearly independent.
func TransformWithBasis(nest *loop.Nest, psi *space.Space, q [][]int64) (*Transformed, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	n := nest.Depth()
	if psi.Ambient() != n {
		return nil, fmt.Errorf("transform: Ψ ambient %d != depth %d", psi.Ambient(), n)
	}
	k := n - psi.Dim()
	if len(q) != k {
		return nil, fmt.Errorf("transform: basis has %d rows, complement dimension is %d", len(q), k)
	}
	comp := psi.OrthogonalComplement()
	for _, row := range q {
		if len(row) != n {
			return nil, fmt.Errorf("transform: basis row %v has length %d, want %d", row, len(row), n)
		}
		if !comp.Contains(row) {
			return nil, fmt.Errorf("transform: basis row %v not orthogonal to Ψ = %s", row, psi)
		}
	}
	if space.Span(n, q...).Dim() != k {
		return nil, fmt.Errorf("transform: basis rows not linearly independent")
	}

	tr := &Transformed{Nest: nest, Psi: psi, K: k, G: n - k}

	// Row-echelon pass over Q to fix pivot columns and the permutation σ:
	// each echelon row is derived from one original row; equation (1)
	// defines I′_{y_j} with the ORIGINAL row assigned to pivot j.
	type rowState struct {
		vals []int64
		orig int
	}
	work := make([]rowState, k)
	for i, row := range q {
		work[i] = rowState{vals: slices.Clone(row), orig: i}
	}
	var pivotCols []int
	var rowOrder []int // original row index per pivot, in pivot order
	rrow := 0
	for col := 0; col < n && rrow < k; col++ {
		sel := -1
		for i := rrow; i < k; i++ {
			if work[i].vals[col] != 0 {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		work[rrow], work[sel] = work[sel], work[rrow]
		p := work[rrow].vals
		for i := rrow + 1; i < k; i++ {
			v := work[i].vals
			if f := v[col]; f != 0 {
				for c := col; c < n; c++ {
					v[c] = intlin.MulAdd(intlin.Mul(p[col], v[c]), intlin.Neg(f), p[c])
				}
				copy(v, intlin.Primitive(v))
			}
		}
		pivotCols = append(pivotCols, col)
		rowOrder = append(rowOrder, work[rrow].orig)
		rrow++
	}
	tr.PivotCols = pivotCols
	tr.Q = make([][]int64, k)
	for j, orig := range rowOrder {
		tr.Q[j] = q[orig]
	}

	// Inner (sequential) indices z₁ < … < z_g: greedily take the original
	// index whose unit vector is NOT in the span of Q ∪ {e_z chosen so
	// far}. This makes T invertible and preserves lexicographic execution
	// order inside each block.
	spanRows := slices.Clone(tr.Q)
	cur := space.Span(n, spanRows...)
	for z := 0; z < n && len(tr.InnerLevels) < tr.G; z++ {
		unit := make([]int64, n)
		unit[z] = 1
		if cur.Contains(unit) {
			continue
		}
		tr.InnerLevels = append(tr.InnerLevels, z)
		spanRows = append(spanRows, unit)
		cur = space.Span(n, spanRows...)
	}
	if len(tr.InnerLevels) != tr.G {
		return nil, fmt.Errorf("transform: could not select %d inner indices", tr.G)
	}

	// T: rows = Q rows then unit rows of the inner indices; T⁻¹ = adj/det.
	tr.T = intlin.FromRows(spanRows)
	adj, det := tr.T.Inverse()
	if det == 0 {
		return nil, fmt.Errorf("transform: transformation matrix singular")
	}
	tr.inv = make([]BoundTerm, n)
	for i := range tr.inv {
		tr.inv[i] = scaleTerm(adj.A[i*n:(i+1)*n], 0, det)
	}

	// Names: forall vars take the pivot index's name + "'", inner vars
	// keep their original names.
	for _, y := range tr.PivotCols {
		tr.Names = append(tr.Names, nest.Levels[y].Name+"'")
	}
	for _, z := range tr.InnerLevels {
		tr.Names = append(tr.Names, nest.Levels[z].Name)
	}

	// Constraint system over J: original bounds with ī = T⁻¹·J = adj·J/det.
	// A row a·ī ≤ b becomes (a·adj)·J ≤ b·det, both sides times sign(det)
	// so the inequality keeps its direction.
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
				if det < 0 {
					c = intlin.Neg(c)
				}
				for jj := range jrow {
					jrow[jj] = intlin.MulAdd(jrow[jj], c, adj.At(ii, jj))
				}
			}
			bound := intlin.Mul(side.a.Const, intlin.Abs(det))
			if side.upper {
				sys.AddLE(jrow, bound)
			} else {
				sys.AddGE(jrow, bound)
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

	// Extended statements: every original index that is not an inner loop
	// variable is recovered from J via T⁻¹.
	inner := map[int]bool{}
	for _, z := range tr.InnerLevels {
		inner[z] = true
	}
	for lvl := 0; lvl < n; lvl++ {
		if inner[lvl] {
			continue
		}
		tr.Extended = append(tr.Extended, ExtendedStatement{OrigLevel: lvl, BoundTerm: tr.inv[lvl]})
	}
	return tr, nil
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

// Original recovers the original iteration from a full new-variable point,
// reporting ok=false when T⁻¹·J is not integral (possible only when T is
// not unimodular).
func (t *Transformed) Original(j []int64) ([]int64, bool) {
	out := make([]int64, len(t.inv))
	for i := range t.inv {
		out[i] = t.inv[i].sum(j)
	}
	if !t.divide(out, out) {
		return nil, false
	}
	return out, true
}

// divide writes T⁻¹·J into orig from its numerators, row by row,
// reporting false when a row's denominator does not divide its
// numerator. num and orig may be the same slice.
func (t *Transformed) divide(num, orig []int64) bool {
	for i, v := range num {
		if d := t.inv[i].Den; d != 1 {
			if v%d != 0 {
				return false
			}
			v /= d
		}
		orig[i] = v
	}
	return true
}

// NewPoint maps an original iteration to new coordinates J = T·ī.
func (t *Transformed) NewPoint(orig []int64) []int64 { return t.T.MulVec(orig) }

// Visit enumerates the transformed loop: body is called for every
// iteration, forall points in lexicographic order and, inside one forall
// point (block), iterations in lexicographic original order. Both slices
// are buffers Visit reuses: body must copy what it keeps.
//
// The bounds are exact: every constraint of the nest bounds the last new
// variable it involves, so every integral T⁻¹·J the walk reaches is an
// iteration.
func (t *Transformed) Visit(body func(forall, orig []int64)) {
	n := t.Nest.Depth()
	if n == 0 {
		return
	}
	last := n - 1
	point, num, orig := make([]int64, n), make([]int64, n), make([]int64, n)
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
		// The innermost level moves T⁻¹·J's numerators by the last column
		// of T⁻¹ per step.
		point[last] = lo
		for i := range t.inv {
			num[i] = t.inv[i].sum(point)
		}
		for {
			if t.divide(num, orig) {
				body(point[:t.K], orig)
			}
			if point[last] == hi {
				return
			}
			point[last]++
			for i := range num {
				num[i] = intlin.Add(num[i], t.inv[i].Coeffs[last])
			}
		}
	}
	rec(0)
}

// enumerate walks the forall space on first use: the forall points that
// hold at least one iteration, in Visit order, with their iteration
// counts. Everything that asks how the loop splits into blocks — the
// block list, workloads, the wire views — reads this one enumeration.
// The points share one backing array.
func (t *Transformed) enumerate() {
	t.forallOnce.Do(func() {
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
	for e, es := range t.Extended {
		fmt.Fprintf(&b, "%sE%d: %s := %s\n", indent, e+1, t.Nest.Levels[es.OrigLevel].Name, es.render(t.Names))
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
