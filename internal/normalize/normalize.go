// Package normalize is the preprocessing pass between parse and deps:
// it rewrites affine (non-uniform) array references into the uniformly
// generated form the partition machinery requires, and classifies nests
// it provably cannot normalize with a typed ClassifyError.
//
// The pass applies exactly three rewrites, each a semantics-preserving
// data-space relabel or identity on data indices:
//
//  1. Symbolic-offset elimination: when every reference to an array
//     carries the identical symbolic sum on a subscript (A[i+d] written
//     and read), the relabel new = old − Σsym drops the symbol. If two
//     references disagree symbolically, the dependence distance itself
//     is symbolic and the nest is rejected (ClassSymbolicOffsetMismatch).
//  2. Singleton-level folding: a loop level whose bounds pin it to one
//     constant value c contributes H[r][k]·c to every subscript; folding
//     that product into the offset and zeroing the column is the
//     identity on data indices but removes per-reference coefficient
//     differences in that column.
//  3. Stride compression: when a subscript row is uniformly dilated —
//     every coefficient divisible by g ≥ 2 and every offset congruent to
//     ρ (mod g) — the relabel new = (old − ρ)/g is injective on the
//     touched lattice and yields the natural hand-written form.
//
// References whose matrices still differ after these rewrites can never
// be made uniform by any iteration-space reindexing (which multiplies
// every H on the right) or injective per-array data relabel (which
// preserves H differences), so the pass classifies them instead:
// symbolic stride, non-invertible index map, coupled subscripts, or
// variable distance.
//
// The pass is the identity — same *loop.Nest pointer, no rewrites — on
// any concrete nest that already validates, so every input the strict
// parser accepts flows through byte-identically.
package normalize

import (
	"fmt"
	"strings"

	"commfree/internal/lang"
	"commfree/internal/loop"
)

// Class names one provably-unhandleable rejection category.
type Class string

const (
	// ClassSymbolicStride: a loop index carries a symbolic coefficient
	// (A[N*i]); the reference matrix is unknown at compile time.
	ClassSymbolicStride Class = "symbolic-stride"
	// ClassSymbolicOffsetMismatch: two references to one array disagree
	// in their symbolic offsets, so the dependence distance is symbolic.
	ClassSymbolicOffsetMismatch Class = "symbolic-offset-mismatch"
	// ClassNonInvertibleIndexMap: the base reference matrix is rank
	// deficient over the rationals; the data→iteration map cannot be
	// inverted to align the other references against it.
	ClassNonInvertibleIndexMap Class = "non-invertible-index-map"
	// ClassCoupledSubscripts: a subscript row of one reference is not
	// parallel to the base's row (e.g. A[i,j] against A[j,i]); no
	// per-array affine relabel can reconcile non-proportional rows.
	ClassCoupledSubscripts Class = "coupled-subscripts"
	// ClassVariableDistance: all rows are pairwise parallel but with a
	// proportionality factor ≠ 1 (A[2i] against A[i]); the dependence
	// distance grows with the iteration point (Kale/Patil/Biswas's
	// variable-distance class).
	ClassVariableDistance Class = "variable-distance"
)

// ClassifyError is the typed diagnostic for a nest the pass provably
// cannot normalize: the rejection class, the offending reference, the
// base reference it was compared against (when applicable), and the
// precise failed condition.
type ClassifyError struct {
	Class  Class
	Array  string
	Ref    string // offending reference, rendered
	Base   string // reference compared against ("" when not pairwise)
	Detail string // the failed condition
}

func (e *ClassifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "normalize: array %s not normalizable [%s]: ref %s", e.Array, e.Class, e.Ref)
	if e.Base != "" {
		fmt.Fprintf(&b, " vs %s", e.Base)
	}
	fmt.Fprintf(&b, ": %s", e.Detail)
	return b.String()
}

// RowMap records the per-subscript data relabel applied to one array
// dimension: original = Scale·normalized + Shift + Σ Coeff·value(Name)
// over the Sym terms.
type RowMap struct {
	Scale int64
	Shift int64
	Sym   []lang.SymTerm
}

// ArrayMap is the full relabel of one array, one RowMap per dimension.
type ArrayMap struct {
	Rows []RowMap
}

// Result is a successful normalization: the uniform concrete nest, plus
// the data relabels needed to map its coordinates back to the source's.
type Result struct {
	// Nest is uniformly generated and concrete; it is the input's own
	// *loop.Nest (same pointer) when Identity is true.
	Nest *loop.Nest
	// Identity is true when the input already validated and carried no
	// symbols — nothing was rewritten.
	Identity bool
	// Arrays holds the non-identity relabels, keyed by array name;
	// arrays absent from the map kept their original coordinates.
	Arrays map[string]*ArrayMap
	// Folded lists the 0-based singleton loop levels whose constant
	// contribution was folded into reference offsets (identity on data
	// coordinates; recorded for diagnostics).
	Folded []int
}

// OldIndex maps a normalized data point of the named array back to the
// original coordinate system, grounding symbolic terms with vals.
func (r *Result) OldIndex(array string, idx []int64, vals map[string]int64) []int64 {
	out := append([]int64(nil), idx...)
	am := r.Arrays[array]
	if am == nil {
		return out
	}
	for i, m := range am.Rows[:min(len(am.Rows), len(out))] {
		out[i] = m.Scale*out[i] + m.Shift
		for _, t := range m.Sym {
			out[i] += t.Coeff * vals[t.Name]
		}
	}
	return out
}

// Source parses DSL source in affine mode and normalizes it: the
// one-call front end for the service, cluster, and CLI compile paths.
// Errors are either *lang.Error (malformed source) or *ClassifyError.
func Source(src string) (*Result, error) {
	a, err := lang.ParseAffine(src)
	if err != nil {
		return nil, err
	}
	return Apply(a)
}

// Apply normalizes a parsed affine nest. On success the returned nest
// satisfies loop.Nest.Validate; on failure the error is a
// *ClassifyError naming the offending reference and failed condition.
func Apply(a *lang.AffineNest) (*Result, error) {
	// Identity fast path: concrete and already uniform — hand back the
	// input nest untouched so strict-parser flows are byte-identical.
	if !a.HasSyms() {
		if err := a.Nest.ValidateUniform(); err == nil {
			return &Result{Nest: a.Nest, Identity: true, Arrays: map[string]*ArrayMap{}}, nil
		}
	}

	// Rejection 1: symbolic strides — the reference matrix itself is
	// unknown, no rewrite can recover a constant H.
	if err := rejectSymbolicStrides(a); err != nil {
		return nil, err
	}

	work := a.Nest.Clone()
	// The verbatim RHS text spells the pre-rewrite subscripts; drop it so
	// formatting goes through the renderer with the rewritten references.
	for _, st := range work.Body {
		st.SourceRHS = ""
	}
	res := &Result{Nest: work, Arrays: map[string]*ArrayMap{}}

	// Rewrite 1: symbolic-offset elimination (or rejection 2 when the
	// references disagree symbolically).
	if err := elideSymbolicOffsets(a, res); err != nil {
		return nil, err
	}

	// Rewrite 2: fold singleton constant levels into offsets.
	foldSingletonLevels(work, res)

	// Rewrite 3: per-array stride compression.
	compressStrides(work, res)

	// Whatever still fails uniformity is provably out of reach.
	if err := work.ValidateUniform(); err != nil {
		return nil, classify(work)
	}
	if err := work.Validate(); err != nil {
		// Structure was validated at parse time and the rewrites do not
		// touch bounds, so this is unreachable; fail loudly if not.
		return nil, fmt.Errorf("normalize: internal error: rewritten nest invalid: %w", err)
	}
	return res, nil
}

// symsFor returns the statement's symbolic terms, tolerating hand-built
// AffineNests with missing or short Syms.
func symsFor(a *lang.AffineNest, s int) lang.StmtSyms {
	if s < len(a.Syms) {
		return a.Syms[s]
	}
	return lang.StmtSyms{}
}

// refEntry pairs one reference with its symbolic rows and a rendering
// of its source form for diagnostics.
type refEntry struct {
	ref  *loop.Ref
	rows [][]lang.SymTerm
}

// entriesByArray walks the nest body and groups every reference (write
// first, then reads, in statement order) by array, carrying pointers so
// rewrites mutate the nest in place. syms follows the same order.
func entriesByArray(nest *loop.Nest, a *lang.AffineNest) (map[string][]refEntry, []string) {
	byArray := map[string][]refEntry{}
	var order []string
	add := func(ref *loop.Ref, rs lang.RefSyms) {
		if _, ok := byArray[ref.Array]; !ok {
			order = append(order, ref.Array)
		}
		byArray[ref.Array] = append(byArray[ref.Array], refEntry{ref: ref, rows: rs.Rows})
	}
	for s, st := range nest.Body {
		var ss lang.StmtSyms
		if a != nil {
			ss = symsFor(a, s)
		}
		add(&st.Write, ss.Write)
		for i := range st.Reads {
			var rs lang.RefSyms
			if i < len(ss.Reads) {
				rs = ss.Reads[i]
			}
			add(&st.Reads[i], rs)
		}
	}
	return byArray, order
}

// renderRef formats a reference including its symbolic terms, e.g.
// "A[i1+1 + 1·d, i2]".
func renderRef(ref loop.Ref, rows [][]lang.SymTerm) string {
	subs := make([]string, len(ref.H))
	for r := range ref.H {
		af := loop.Affine{Coeffs: ref.H[r], Const: ref.Offset[r]}
		s := af.String()
		if r < len(rows) && len(rows[r]) > 0 {
			s += " + " + lang.RenderTerms(rows[r])
		}
		subs[r] = s
	}
	return ref.Array + "[" + strings.Join(subs, ",") + "]"
}

// rejectSymbolicStrides returns a ClassifyError if any subscript carries
// a symbolic coefficient on a loop index.
func rejectSymbolicStrides(a *lang.AffineNest) error {
	check := func(ref loop.Ref, rs lang.RefSyms) error {
		for r, row := range rs.Rows {
			for _, t := range row {
				if t.Level >= 0 {
					return &ClassifyError{
						Class: ClassSymbolicStride,
						Array: ref.Array,
						Ref:   renderRef(ref, rs.Rows),
						Detail: fmt.Sprintf("subscript %d has symbolic coefficient %s on loop index %s: the reference matrix is unknown at compile time",
							r+1, t.String(), a.Nest.Levels[t.Level].Name),
					}
				}
			}
		}
		return nil
	}
	for s, st := range a.Nest.Body {
		ss := symsFor(a, s)
		if err := check(st.Write, ss.Write); err != nil {
			return err
		}
		for i := range st.Reads {
			if i < len(ss.Reads) {
				if err := check(st.Reads[i], ss.Reads[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// symKey is a canonical encoding of a (sorted) symbolic term list, used
// to compare rows across references.
func symKey(terms []lang.SymTerm) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = fmt.Sprintf("%s:%d", t.Name, t.Coeff)
	}
	return strings.Join(parts, "|")
}

// elideSymbolicOffsets checks that every reference to an array carries
// the identical symbolic sum per subscript, records the common sum as a
// data relabel (new = old − Σsym), and rejects mismatches. The concrete
// nest needs no edit: symbolic terms live beside it, never inside it.
func elideSymbolicOffsets(a *lang.AffineNest, res *Result) error {
	byArray, order := entriesByArray(res.Nest, a)
	for _, array := range order {
		entries := byArray[array]
		base := entries[0]
		dim := base.ref.Dim()
		for _, e := range entries[1:] {
			for r := 0; r < dim && r < max(len(base.rows), len(e.rows)); r++ {
				var bt, et []lang.SymTerm
				if r < len(base.rows) {
					bt = base.rows[r]
				}
				if r < len(e.rows) {
					et = e.rows[r]
				}
				if symKey(bt) != symKey(et) {
					return &ClassifyError{
						Class: ClassSymbolicOffsetMismatch,
						Array: array,
						Ref:   renderRef(*e.ref, e.rows),
						Base:  renderRef(*base.ref, base.rows),
						Detail: fmt.Sprintf("subscript %d carries %s against the base's %s: the dependence distance is symbolic and cannot be resolved at compile time",
							r+1, lang.RenderTerms(et), lang.RenderTerms(bt)),
					}
				}
			}
		}
		// All references agree; a non-empty common sum becomes a relabel.
		for r := 0; r < dim; r++ {
			if r < len(base.rows) && len(base.rows[r]) > 0 {
				am := res.Arrays[array]
				if am == nil {
					am = &ArrayMap{Rows: identityRows(dim)}
					res.Arrays[array] = am
				}
				am.Rows[r].Sym = append([]lang.SymTerm(nil), base.rows[r]...)
			}
		}
	}
	return nil
}

func identityRows(d int) []RowMap {
	rows := make([]RowMap, d)
	for i := range rows {
		rows[i] = RowMap{Scale: 1}
	}
	return rows
}

// foldSingletonLevels rewrites H[r][k]·c into the offset for every loop
// level k pinned to the single constant value c — the identity on data
// coordinates, but it erases per-reference differences in column k.
func foldSingletonLevels(nest *loop.Nest, res *Result) {
	byArray, _ := entriesByArray(nest, nil)
	for k, lv := range nest.Levels {
		if !lv.Lower.IsConst() || !lv.Upper.IsConst() || lv.Lower.Const != lv.Upper.Const {
			continue
		}
		c := lv.Lower.Const
		changed := false
		for _, entries := range byArray {
			for _, e := range entries {
				for r := range e.ref.H {
					if k < len(e.ref.H[r]) && e.ref.H[r][k] != 0 {
						e.ref.Offset[r] += e.ref.H[r][k] * c
						e.ref.H[r][k] = 0
						changed = true
					}
				}
			}
		}
		if changed {
			res.Folded = append(res.Folded, k)
		}
	}
}

// compressStrides divides each uniformly dilated subscript row by its
// coefficient gcd g when every offset is congruent mod g, recording the
// injective relabel new = (old − ρ)/g.
func compressStrides(nest *loop.Nest, res *Result) {
	byArray, order := entriesByArray(nest, nil)
	for _, array := range order {
		entries := byArray[array]
		dim := entries[0].ref.Dim()
		for r := 0; r < dim; r++ {
			g := int64(0)
			for _, e := range entries {
				if r >= len(e.ref.H) {
					g = 0
					break
				}
				for _, c := range e.ref.H[r] {
					g = gcd(g, abs(c))
				}
			}
			if g < 2 {
				continue
			}
			rho := mod(entries[0].ref.Offset[r], g)
			ok := true
			for _, e := range entries {
				if mod(e.ref.Offset[r], g) != rho {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, e := range entries {
				for c := range e.ref.H[r] {
					e.ref.H[r][c] /= g
				}
				e.ref.Offset[r] = (e.ref.Offset[r] - rho) / g
			}
			am := res.Arrays[array]
			if am == nil {
				am = &ArrayMap{Rows: identityRows(dim)}
				res.Arrays[array] = am
			}
			// Compose onto the existing relabel: old = S·mid + T + sym
			// with mid = g·new + ρ gives old = S·g·new + S·ρ + T + sym.
			am.Rows[r].Shift += am.Rows[r].Scale * rho
			am.Rows[r].Scale *= g
		}
	}
}

// classify explains why a still-non-uniform nest is out of reach: the
// first offending array's first divergent reference is compared row by
// row against the base (the first write, or first reference).
func classify(nest *loop.Nest) error {
	for _, array := range nest.Arrays() {
		refs, _, _ := nest.RefsOf(array)
		if len(refs) < 2 {
			continue
		}
		base := refs[0]
		for _, other := range refs[1:] {
			if base.SameFunction(other) {
				continue
			}
			return classifyPair(array, base, other)
		}
	}
	// ValidateUniform failed, so an offending pair must exist.
	return fmt.Errorf("normalize: internal error: no offending reference pair found")
}

func classifyPair(array string, base, other loop.Ref) error {
	if rk := rank(base.H); rk < len(base.H) {
		return &ClassifyError{
			Class: ClassNonInvertibleIndexMap,
			Array: array,
			Ref:   base.String(),
			Base:  other.String(),
			Detail: fmt.Sprintf("base reference matrix has rank %d < %d: the data→iteration map is not invertible, so no reindexing can align the references",
				rk, len(base.H)),
		}
	}
	allParallel := true
	firstDiff := -1
	for r := range base.H {
		if r >= len(other.H) {
			allParallel = false
			firstDiff = r
			break
		}
		if !parallel(base.H[r], other.H[r]) {
			allParallel = false
			firstDiff = r
			break
		}
		if firstDiff < 0 && !rowsEqual(base.H[r], other.H[r]) {
			firstDiff = r
		}
	}
	if !allParallel {
		return &ClassifyError{
			Class: ClassCoupledSubscripts,
			Array: array,
			Ref:   other.String(),
			Base:  base.String(),
			Detail: fmt.Sprintf("subscript %d rows %v and %v are not proportional: no affine data relabel reconciles non-parallel index rows",
				firstDiff+1, rowAt(base.H, firstDiff), rowAt(other.H, firstDiff)),
		}
	}
	return &ClassifyError{
		Class: ClassVariableDistance,
		Array: array,
		Ref:   other.String(),
		Base:  base.String(),
		Detail: fmt.Sprintf("subscript %d rows %v and %v are proportional with factor ≠ 1: the dependence distance varies with the iteration point",
			firstDiff+1, rowAt(base.H, firstDiff), rowAt(other.H, firstDiff)),
	}
}

func rowAt(h [][]int64, r int) []int64 {
	if r >= 0 && r < len(h) {
		return h[r]
	}
	return nil
}

func rowsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parallel reports whether integer vectors a and b are proportional
// (either may be zero; a zero vector is parallel only to another zero).
func parallel(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	az, bz := isZero(a), isZero(b)
	if az || bz {
		return az == bz
	}
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if a[i]*b[j] != a[j]*b[i] {
				return false
			}
		}
	}
	// Cross products equal ⇒ proportional up to sign; require the signs
	// to agree on some nonzero coordinate pair.
	for i := range a {
		if a[i] != 0 && b[i] != 0 {
			return (a[i] > 0) == (b[i] > 0)
		}
		if (a[i] == 0) != (b[i] == 0) {
			return false
		}
	}
	return true
}

func isZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// rank computes the row rank of an integer matrix over the rationals by
// fraction-free Gaussian elimination.
func rank(h [][]int64) int {
	if len(h) == 0 {
		return 0
	}
	m := make([][]int64, len(h))
	for i := range h {
		m[i] = append([]int64(nil), h[i]...)
	}
	rows, cols := len(m), len(m[0])
	rk := 0
	for c := 0; c < cols && rk < rows; c++ {
		pivot := -1
		for r := rk; r < rows; r++ {
			if m[r][c] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m[rk], m[pivot] = m[pivot], m[rk]
		for r := rk + 1; r < rows; r++ {
			if m[r][c] == 0 {
				continue
			}
			p, q := m[rk][c], m[r][c]
			for cc := c; cc < cols; cc++ {
				m[r][cc] = m[r][cc]*p - m[rk][cc]*q
			}
		}
		rk++
	}
	return rk
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// mod is the non-negative remainder of a mod g (g > 0).
func mod(a, g int64) int64 {
	r := a % g
	if r < 0 {
		r += g
	}
	return r
}
