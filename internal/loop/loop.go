// Package loop defines the intermediate representation of normalized
// nested loops with uniformly generated array references — the input model
// of the paper (Section II).
//
// A Nest holds n loop levels with affine bounds, a body of assignment
// statements, and, per statement, one write reference and any number of
// read references. Each reference to a d-dimensional array A is an affine
// map ī ↦ H·ī + c̄ from the iteration space Zⁿ to the data space Z^d.
package loop

import (
	"fmt"
	"sort"
	"strings"
)

// Affine is an affine function of the loop indices:
// Const + Σ Coeffs[j]·I_{j+1}. Coeffs has one entry per loop level.
type Affine struct {
	Coeffs []int64
	Const  int64
}

// ConstAffine returns the constant affine function c (with n index slots).
func ConstAffine(n int, c int64) Affine {
	return Affine{Coeffs: make([]int64, n), Const: c}
}

// Eval evaluates the affine function at iteration point i.
func (a Affine) Eval(i []int64) int64 {
	if len(i) < len(a.Coeffs) {
		panic(fmt.Errorf("loop: affine eval with %d indices, need %d", len(i), len(a.Coeffs)))
	}
	v := a.Const
	for j, c := range a.Coeffs {
		v += c * i[j]
	}
	return v
}

// IsConst reports whether the affine function ignores all indices.
func (a Affine) IsConst() bool {
	for _, c := range a.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// DependsOnlyOn reports whether the function uses only index levels < k
// (0-based), as the normalized-loop bound rule requires for level k.
func (a Affine) DependsOnlyOn(k int) bool {
	for j := k; j < len(a.Coeffs); j++ {
		if a.Coeffs[j] != 0 {
			return false
		}
	}
	return true
}

// String renders the function using index names I1..In.
func (a Affine) String() string {
	var parts []string
	for j, c := range a.Coeffs {
		switch {
		case c == 0:
		case c == 1:
			parts = append(parts, fmt.Sprintf("i%d", j+1))
		case c == -1:
			parts = append(parts, fmt.Sprintf("-i%d", j+1))
		default:
			parts = append(parts, fmt.Sprintf("%d*i%d", c, j+1))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
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

// Level is one loop level with affine lower/upper bounds (inclusive). The
// bounds may reference only outer indices.
type Level struct {
	Name  string // index variable name, e.g. "i"
	Lower Affine
	Upper Affine
}

// Ref is a single array reference A[H·ī + c̄].
type Ref struct {
	Array  string    // array name
	H      [][]int64 // d×n reference matrix
	Offset []int64   // length-d constant offset c̄
}

// Dim returns the array dimensionality d of the reference.
func (r Ref) Dim() int { return len(r.Offset) }

// Index returns the data-space point H·ī + c̄ touched at iteration ī.
func (r Ref) Index(i []int64) []int64 {
	out := make([]int64, r.Dim())
	for row := range r.H {
		v := r.Offset[row]
		for col, h := range r.H[row] {
			v += h * i[col]
		}
		out[row] = v
	}
	return out
}

// String renders the reference like A[2i1,i2+1].
func (r Ref) String() string {
	var subs []string
	for row := range r.H {
		a := Affine{Coeffs: r.H[row], Const: r.Offset[row]}
		subs = append(subs, a.String())
	}
	return r.Array + "[" + strings.Join(subs, ",") + "]"
}

// SameFunction reports whether two references to the same array share the
// reference matrix H (the uniformly-generated-references condition).
func (r Ref) SameFunction(o Ref) bool {
	if r.Array != o.Array || len(r.H) != len(o.H) {
		return false
	}
	for i := range r.H {
		if len(r.H[i]) != len(o.H[i]) {
			return false
		}
		for j := range r.H[i] {
			if r.H[i][j] != o.H[i][j] {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the affine function.
func (a Affine) Clone() Affine {
	return Affine{Coeffs: append([]int64(nil), a.Coeffs...), Const: a.Const}
}

// Clone returns a deep copy of the reference (H rows and Offset are
// freshly allocated, so mutating the copy cannot alias the original).
func (r Ref) Clone() Ref {
	out := Ref{Array: r.Array, Offset: append([]int64(nil), r.Offset...)}
	out.H = make([][]int64, len(r.H))
	for i := range r.H {
		out.H[i] = append([]int64(nil), r.H[i]...)
	}
	return out
}

// Statement is one assignment in the loop body: Write := f(Reads...).
type Statement struct {
	Label string // e.g. "S1"
	Write Ref
	Reads []Ref
	// Tree is the right-hand side f: given the iteration point and the
	// values of the read references (in Reads order) it produces the
	// value to store. A nil Tree is the default semantics, 1 + Σ reads,
	// which is enough to make data flow observable in tests.
	Tree *ExprTree
	// SourceRHS is the verbatim DSL text of the right-hand side when the
	// statement came from the parser; used by the formatter for exact
	// round-trips. Empty for hand-built statements.
	SourceRHS string
}

// EvalExpr applies the statement's right-hand side (or the default).
func (s *Statement) EvalExpr(iter []int64, reads []float64) float64 {
	if s.Tree != nil {
		return s.Tree.Eval(iter, reads)
	}
	v := 1.0
	for _, r := range reads {
		v += r
	}
	return v
}

// RenderRHS spells the right-hand side as an infix expression that is
// valid both as DSL source and as Go: readExprs[i] stands for the value
// of Reads[i] and indexExprs[k] for loop index k used as a value — the
// caller chooses the leaf spelling (the formatter passes index names,
// codegen passes float64(...) casts).
func (s *Statement) RenderRHS(readExprs, indexExprs []string) string {
	if s.Tree != nil {
		return s.Tree.Render(readExprs, indexExprs)
	}
	return strings.Join(append([]string{"1"}, readExprs...), " + ")
}

// Nest is a normalized n-nested loop.
type Nest struct {
	Levels []Level
	Body   []*Statement
}

// Depth returns the nesting depth n.
func (l *Nest) Depth() int { return len(l.Levels) }

// Clone returns a deep copy of the nest. Statement Trees are shared —
// they are immutable — but every Level, Ref, and slice is freshly
// allocated so reference rewrites on the copy cannot alias the
// original.
func (l *Nest) Clone() *Nest {
	out := &Nest{Levels: make([]Level, len(l.Levels)), Body: make([]*Statement, len(l.Body))}
	for k, lv := range l.Levels {
		out.Levels[k] = Level{Name: lv.Name, Lower: lv.Lower.Clone(), Upper: lv.Upper.Clone()}
	}
	for s, st := range l.Body {
		c := &Statement{
			Label:     st.Label,
			Write:     st.Write.Clone(),
			Reads:     make([]Ref, len(st.Reads)),
			Tree:      st.Tree,
			SourceRHS: st.SourceRHS,
		}
		for i, r := range st.Reads {
			c.Reads[i] = r.Clone()
		}
		out.Body[s] = c
	}
	return out
}

// Validate checks the structural invariants: normalized bounds (level k
// bounds reference only indices < k), consistent reference shapes, and
// per-array uniform generation. It returns a descriptive error otherwise.
func (l *Nest) Validate() error {
	if err := l.ValidateStructure(); err != nil {
		return err
	}
	return l.ValidateUniform()
}

// ValidateStructure checks everything Validate does except per-array
// uniform generation: normalized bounds and consistent reference shapes.
// The affine front end (lang.ParseAffine + internal/normalize) accepts
// structurally valid nests and then either rewrites them into the
// uniformly generated form or rejects them with a typed classification.
func (l *Nest) ValidateStructure() error {
	n := l.Depth()
	if n == 0 {
		return fmt.Errorf("loop: empty nest")
	}
	for k, lv := range l.Levels {
		if len(lv.Lower.Coeffs) != n || len(lv.Upper.Coeffs) != n {
			return fmt.Errorf("loop: level %d bounds have wrong coefficient count", k+1)
		}
		if !lv.Lower.DependsOnlyOn(k) || !lv.Upper.DependsOnlyOn(k) {
			return fmt.Errorf("loop: level %d (%s) bounds reference inner indices", k+1, lv.Name)
		}
	}
	if len(l.Body) == 0 {
		return fmt.Errorf("loop: empty body")
	}
	for si, s := range l.Body {
		for _, r := range append([]Ref{s.Write}, s.Reads...) {
			if len(r.H) != len(r.Offset) {
				return fmt.Errorf("loop: statement %d ref %s: H rows %d != offset %d",
					si+1, r.Array, len(r.H), len(r.Offset))
			}
			for _, row := range r.H {
				if len(row) != n {
					return fmt.Errorf("loop: statement %d ref %s: H has %d columns, depth %d",
						si+1, r.Array, len(row), n)
				}
			}
		}
	}
	return nil
}

// ValidateUniform checks per-array uniform generation: every reference
// to an array shares one reference matrix H.
func (l *Nest) ValidateUniform() error {
	byArray := map[string]Ref{}
	for _, s := range l.Body {
		for _, r := range append([]Ref{s.Write}, s.Reads...) {
			if prev, ok := byArray[r.Array]; ok {
				if !prev.SameFunction(r) {
					return fmt.Errorf("loop: array %s not uniformly generated: %s vs %s",
						r.Array, prev, r)
				}
			} else {
				byArray[r.Array] = r
			}
		}
	}
	return nil
}

// Arrays returns the sorted names of all arrays referenced by the nest.
func (l *Nest) Arrays() []string {
	seen := map[string]bool{}
	for _, s := range l.Body {
		seen[s.Write.Array] = true
		for _, r := range s.Reads {
			seen[r.Array] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// RefsOf returns every reference to the named array, writes first, in
// statement order; the boolean slice marks which are writes.
func (l *Nest) RefsOf(array string) (refs []Ref, isWrite []bool, stmt []int) {
	for si, s := range l.Body {
		if s.Write.Array == array {
			refs = append(refs, s.Write)
			isWrite = append(isWrite, true)
			stmt = append(stmt, si)
		}
	}
	for si, s := range l.Body {
		for _, r := range s.Reads {
			if r.Array == array {
				refs = append(refs, r)
				isWrite = append(isWrite, false)
				stmt = append(stmt, si)
			}
		}
	}
	return refs, isWrite, stmt
}

// ReferenceMatrix returns the shared H of the named array (all references
// are uniformly generated after Validate).
func (l *Nest) ReferenceMatrix(array string) [][]int64 {
	refs, _, _ := l.RefsOf(array)
	if len(refs) == 0 {
		return nil
	}
	return refs[0].H
}

// Walk streams the iteration space in lexicographic order without
// materializing it: an iterative odometer over the affine bounds, with
// the innermost index varying fastest. The point slice is reused
// between calls, so fn must copy it to retain it past the call. Walk
// stops early and returns false when fn returns false.
func (l *Nest) Walk(fn func(i []int64) bool) bool {
	n := l.Depth()
	point := make([]int64, n)
	if n == 0 {
		return fn(point)
	}
	his := make([]int64, n)
	k := 0
	for {
		// Descend: open levels k..n-1 at their lower bounds. Bounds may
		// reference only outer indices, so evaluating against the
		// partially updated point is exact.
		for ; k < n; k++ {
			lo := l.Levels[k].Lower.Eval(point)
			hi := l.Levels[k].Upper.Eval(point)
			if lo > hi {
				break // empty range under the current outer values
			}
			point[k] = lo
			his[k] = hi
		}
		if k == n {
			if !fn(point) {
				return false
			}
		}
		// Advance: increment the deepest open level with headroom, then
		// re-descend below it.
		k--
		for ; k >= 0; k-- {
			if point[k] < his[k] {
				point[k]++
				k++
				break
			}
		}
		if k < 0 {
			return true
		}
	}
}

// Iterations enumerates the iteration space in lexicographic order.
// Prefer Walk on large nests — this materializes every point.
func (l *Nest) Iterations() [][]int64 {
	var out [][]int64
	l.Walk(func(it []int64) bool {
		cp := make([]int64, len(it))
		copy(cp, it)
		out = append(out, cp)
		return true
	})
	return out
}

// NumIterations counts the iteration-space size without materializing it.
func (l *Nest) NumIterations() int64 {
	var count int64
	l.Walk(func([]int64) bool {
		count++
		return true
	})
	return count
}

// LexLess reports whether iteration a precedes b lexicographically.
func LexLess(a, b []int64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// ConstBounds returns (lower, upper) for each level when all bounds are
// constants, or ok=false when any bound depends on outer indices.
func (l *Nest) ConstBounds() (lo, hi []int64, ok bool) {
	lo = make([]int64, l.Depth())
	hi = make([]int64, l.Depth())
	for k, lv := range l.Levels {
		if !lv.Lower.IsConst() || !lv.Upper.IsConst() {
			return nil, nil, false
		}
		lo[k] = lv.Lower.Const
		hi[k] = lv.Upper.Const
	}
	return lo, hi, true
}

// String renders the nest as DSL-style source.
func (l *Nest) String() string {
	var b strings.Builder
	indent := ""
	for _, lv := range l.Levels {
		fmt.Fprintf(&b, "%sfor %s = %s to %s\n", indent, lv.Name, lv.Lower, lv.Upper)
		indent += "  "
	}
	for _, s := range l.Body {
		label := s.Label
		if label != "" {
			label += ": "
		}
		var reads []string
		for _, r := range s.Reads {
			reads = append(reads, r.String())
		}
		rhs := "f(" + strings.Join(reads, ", ") + ")"
		fmt.Fprintf(&b, "%s%s%s := %s\n", indent, label, s.Write, rhs)
	}
	for k := l.Depth() - 1; k >= 0; k-- {
		indent = strings.Repeat("  ", k)
		fmt.Fprintf(&b, "%send\n", indent)
	}
	return b.String()
}
