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
	"math"
	"slices"
	"strings"
	"sync"

	"commfree/internal/linalg"
	"commfree/internal/loop"
	"commfree/internal/polyhedron"
	"commfree/internal/rational"
	"commfree/internal/space"
)

// BoundTerm is one affine candidate bound over the new loop variables
// that precede the bounded one, held exactly in integers: the bound is
// (Const + Σ Coeffs[j]·v_j) / Den, where Den ≥ 1 is the lcm of the
// denominators of the rational term Fourier–Motzkin derived. A lower
// bound is the ceiling of that quotient, an upper bound its floor. The
// form is canonical: equal terms have equal fields.
type BoundTerm struct {
	Coeffs []int64 // length = index of the bounded variable
	Const  int64
	Den    int64
}

// scaleTerm puts the rational term konst + Σ coeffs[j]·v_j over its lcm
// denominator. It panics with rational.ErrOverflow when that does not
// fit in int64.
func scaleTerm(coeffs []rational.Rat, konst rational.Rat) BoundTerm {
	t := BoundTerm{Coeffs: make([]int64, len(coeffs)), Den: konst.Den()}
	for _, c := range coeffs {
		t.Den = rational.LCM(t.Den, c.Den())
	}
	for j, c := range coeffs {
		t.Coeffs[j] = mulAdd(0, c.Num(), t.Den/c.Den())
	}
	t.Const = mulAdd(0, konst.Num(), t.Den/konst.Den())
	return t
}

// sum evaluates Const + Σ Coeffs[j]·outer[j], the term's numerator.
func (b *BoundTerm) sum(outer []int64) int64 {
	v := b.Const
	for j, c := range b.Coeffs {
		if c != 0 {
			v = mulAdd(v, c, outer[j])
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

// value is the term's constant as a rational, for comparing constant
// terms.
func (b BoundTerm) value() rational.Rat { return rational.New(b.Const, b.Den) }

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
			parts = append(parts, rational.New(c, b.Den).String()+"*"+names[j])
		}
	}
	if b.Const != 0 || len(parts) == 0 {
		parts = append(parts, b.value().String())
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
// (empty when hi < lo). It panics with rational.ErrOverflow when a
// term's numerator does not fit in int64.
func (v *VarBounds) Eval(outer []int64) (lo, hi int64) {
	for i := range v.Lower {
		t := &v.Lower[i]
		c := t.sum(outer)
		if t.Den != 1 {
			c = ceilDiv(c, t.Den)
		}
		if i == 0 || c > lo {
			lo = c
		}
	}
	for i := range v.Upper {
		t := &v.Upper[i]
		c := t.sum(outer)
		if t.Den != 1 {
			c = floorDiv(c, t.Den)
		}
		if i == 0 || c < hi {
			hi = c
		}
	}
	return lo, hi
}

// mulAdd returns acc + a·b, panicking with rational.ErrOverflow when
// the product or the sum does not fit in int64.
func mulAdd(acc, a, b int64) int64 {
	p := a * b
	if (a != int64(int32(a)) || b != int64(int32(b))) && a != 0 && (p/a != b || (a == -1 && b == math.MinInt64)) {
		panic(rational.ErrOverflow)
	}
	s := acc + p
	if (acc^s)&(p^s) < 0 { // acc and p share a sign s does not
		panic(rational.ErrOverflow)
	}
	return s
}

// floorDiv and ceilDiv divide by a positive d, rounding down and up.
func floorDiv(a, d int64) int64 {
	q := a / d
	if a%d != 0 && a < 0 {
		q--
	}
	return q
}

func ceilDiv(a, d int64) int64 {
	q := a / d
	if a%d != 0 && a > 0 {
		q++
	}
	return q
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
	// T maps original to new indices (J = T·I); TInv recovers I = TInv·J.
	T, TInv *linalg.Matrix
	// inv holds TInv's rows, each over its lcm denominator, so Original is
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
		if !comp.ContainsInts(row) {
			return nil, fmt.Errorf("transform: basis row %v not orthogonal to Ψ = %s", row, psi)
		}
	}
	if space.SpanInts(n, q...).Dim() != k {
		return nil, fmt.Errorf("transform: basis rows not linearly independent")
	}

	tr := &Transformed{Nest: nest, Psi: psi, K: k, G: n - k}

	// Row-echelon pass over Q to fix pivot columns and the permutation σ:
	// each echelon row is derived from one original row; equation (1)
	// defines I′_{y_j} with the ORIGINAL row assigned to pivot j.
	type rowState struct {
		vals []rational.Rat
		orig int
	}
	work := make([]rowState, k)
	for i, row := range q {
		work[i] = rowState{vals: space.RatVec(row), orig: i}
	}
	var pivotCols []int
	var rowOrder []int // original row index per pivot, in pivot order
	rrow := 0
	for col := 0; col < n && rrow < k; col++ {
		sel := -1
		for i := rrow; i < k; i++ {
			if !work[i].vals[col].IsZero() {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		work[rrow], work[sel] = work[sel], work[rrow]
		for i := rrow + 1; i < k; i++ {
			if work[i].vals[col].IsZero() {
				continue
			}
			f := work[i].vals[col].Div(work[rrow].vals[col])
			for c := col; c < n; c++ {
				work[i].vals[c] = work[i].vals[c].Sub(f.Mul(work[rrow].vals[c]))
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
	spanRows := make([][]rational.Rat, 0, n)
	for _, row := range tr.Q {
		spanRows = append(spanRows, space.RatVec(row))
	}
	cur := space.Span(n, spanRows...)
	for z := 0; z < n && len(tr.InnerLevels) < tr.G; z++ {
		unit := make([]int64, n)
		unit[z] = 1
		if cur.ContainsInts(unit) {
			continue
		}
		tr.InnerLevels = append(tr.InnerLevels, z)
		spanRows = append(spanRows, space.RatVec(unit))
		cur = space.Span(n, spanRows...)
	}
	if len(tr.InnerLevels) != tr.G {
		return nil, fmt.Errorf("transform: could not select %d inner indices", tr.G)
	}

	// T: rows = Q rows then unit rows of the inner indices.
	t := linalg.NewMatrix(n, n)
	for j, row := range tr.Q {
		for c, v := range row {
			t.Set(j, c, rational.FromInt(v))
		}
	}
	for i, z := range tr.InnerLevels {
		t.Set(k+i, z, rational.One)
	}
	tinv := t.Inverse()
	if tinv == nil {
		return nil, fmt.Errorf("transform: transformation matrix singular")
	}
	tr.T, tr.TInv = t, tinv
	tr.inv = make([]BoundTerm, n)
	for i := range tr.inv {
		row := make([]rational.Rat, n)
		for c := range row {
			row[c] = tinv.At(i, c)
		}
		tr.inv[i] = scaleTerm(row, rational.Zero)
	}

	// Names: forall vars take the pivot index's name + "'", inner vars
	// keep their original names.
	for _, y := range tr.PivotCols {
		tr.Names = append(tr.Names, nest.Levels[y].Name+"'")
	}
	for _, z := range tr.InnerLevels {
		tr.Names = append(tr.Names, nest.Levels[z].Name)
	}

	// Constraint system over J: original bounds with ī = T⁻¹·J.
	sys := polyhedron.NewSystem(n)
	for lvl, lv := range nest.Levels {
		// i_lvl − lower(ī) ≥ 0 and i_lvl − upper(ī) ≤ 0, as rows over ī,
		// then transformed to rows over J by right-multiplying with TInv.
		addRow := func(coeffs []int64, konst int64, upper bool) {
			jrow := make([]rational.Rat, n)
			for jj := 0; jj < n; jj++ {
				sum := rational.Zero
				for ii := 0; ii < n; ii++ {
					if coeffs[ii] == 0 {
						continue
					}
					sum = sum.Add(rational.FromInt(coeffs[ii]).Mul(tinv.At(ii, jj)))
				}
				jrow[jj] = sum
			}
			if upper {
				sys.AddLE(jrow, rational.FromInt(konst))
			} else {
				sys.AddGE(jrow, rational.FromInt(konst))
			}
		}
		lo := make([]int64, n)
		copy(lo, lv.Lower.Coeffs)
		for j := range lo {
			lo[j] = -lo[j]
		}
		lo[lvl]++
		addRow(lo, lv.Lower.Const, false)
		hi := make([]int64, n)
		copy(hi, lv.Upper.Coeffs)
		for j := range hi {
			hi[j] = -hi[j]
		}
		hi[lvl]++
		addRow(hi, lv.Upper.Const, true)
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
			if c.IsZero() {
				continue
			}
			// Σ_{j<m} a_j J_j + c·J_m ≤ b  ⇒  J_m ≤ (b − Σ a_j J_j)/c.
			coeffs := make([]rational.Rat, m)
			for j := range coeffs {
				coeffs[j] = q.Coeffs[j].Div(c).Neg()
			}
			term := scaleTerm(coeffs, q.Bound.Div(c))
			if c.Sign() > 0 {
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
		cur := out[bestConst].value()
		if (lower && cur.Less(t.value())) || (!lower && t.value().Less(cur)) {
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
func (t *Transformed) NewPoint(orig []int64) []int64 {
	n := t.Nest.Depth()
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		v := rational.Zero
		for c := 0; c < n; c++ {
			v = v.Add(t.T.At(i, c).Mul(rational.FromInt(orig[c])))
		}
		out[i] = v.Int() // T is integral
	}
	return out
}

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
				num[i] = mulAdd(num[i], t.inv[i].Coeffs[last], 1)
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
