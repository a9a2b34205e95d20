// Package deps analyzes data dependences among the uniformly generated
// array references of a nested loop (Section II of the paper).
//
// For two references A[H·ī + c̄₁] and A[H·ī + c̄₂], iterations ī₁ and ī₂
// touch the same element exactly when H·(ī₂ − ī₁) = c̄₁ − c̄₂, i.e. when
// the data-referenced vector r̄ = c̄₁ − c̄₂ has an integer pre-image under H
// that is realizable as a difference of two points of the iteration space.
// The analyzer decides this exactly: the integer solution set of H·t̄ = r̄
// comes from the Smith normal form (package intlin) and realizability is an
// integer-feasibility query on a small polyhedron (package polyhedron).
package deps

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"commfree/internal/intlin"
	"commfree/internal/loop"
	"commfree/internal/polyhedron"
)

// Kind classifies a dependence (the paper's δf, δa, δo, δi).
type Kind int

const (
	// Flow is a true dependence: a write followed by a read of the same
	// element (δf).
	Flow Kind = iota
	// Anti is a read followed by a write (δa).
	Anti
	// Output is a write followed by a write (δo).
	Output
	// Input is a read followed by a read (δi).
	Input
)

// String returns the paper's symbol for the dependence kind.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Input:
		return "input"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Access identifies one array reference inside the nest.
type Access struct {
	Stmt    int  // statement index in Body
	IsWrite bool // LHS vs RHS
	ReadIdx int  // index into Reads when !IsWrite
	Ref     loop.Ref
}

// String renders the access like "S2 read A[2*i1 - 2,i2 - 1]".
func (a Access) String() string {
	role := "read"
	if a.IsWrite {
		role = "write"
	}
	return fmt.Sprintf("S%d %s %s", a.Stmt+1, role, a.Ref)
}

// order returns the within-iteration execution position of the access.
// Statements run in body order; within a statement, reads precede the
// write. Reads of one statement are ordered by their slot.
func (a Access) order() int {
	// Scale so every statement has room for its reads before the write.
	const slots = 1 << 16
	if a.IsWrite {
		return a.Stmt*slots + slots - 1
	}
	return a.Stmt*slots + a.ReadIdx
}

// Dependence is one data dependence between two accesses: Src executes
// before Dst and both touch a common array element.
type Dependence struct {
	Array string
	Kind  Kind
	Src   Access
	Dst   Access
	// R is the data-referenced vector c̄_src − c̄_dst.
	R []int64
	// Solution is the full integer solution set of H·t̄ = R, where
	// t̄ = ī_dst − ī_src; nil when the only realizable distance is forced
	// through specific iterations (never the case for uniformly generated
	// references with an integer solution).
	Solution *intlin.DiophantineSolution
	// Distance is the unique dependence distance when Ker(H) is trivial;
	// nil otherwise.
	Distance []int64
	// ZeroDistance reports whether a loop-independent instance
	// (t̄ = 0, ordering by statement position) exists.
	ZeroDistance bool
}

// String renders the dependence.
func (d *Dependence) String() string {
	return fmt.Sprintf("%s: %s δ%s %s", d.Array, d.Src, d.Kind, d.Dst)
}

// PairRelation captures the Def. 4 information for one unordered pair of
// references of the same array: the data-referenced vector, whether
// H·t̄ = r̄ is solvable over Q, the direction of a rational particular
// solution, and whether an integer solution is realizable inside the
// iteration space.
type PairRelation struct {
	A, B             Access
	R                []int64 // c̄_A − c̄_B
	RationalSolvable bool
	// Particular is the integer direction of the particular solution
	// t̄ = Particular/den whose free variables are zero (intlin's Solve):
	// Ψ_A only spans it.
	Particular        []int64
	IntegerRealizable bool
	Dio               *intlin.DiophantineSolution
}

// Analysis is the complete dependence analysis of one nest.
type Analysis struct {
	Nest     *loop.Nest
	byArray  map[string][]*Dependence
	pairRels map[string][]PairRelation
	iterSys  *polyhedron.System
}

// Analyze runs dependence analysis on a validated nest.
func Analyze(nest *loop.Nest) (*Analysis, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		Nest:     nest,
		byArray:  map[string][]*Dependence{},
		pairRels: map[string][]PairRelation{},
		iterSys:  iterationSystem(nest),
	}
	for _, array := range nest.Arrays() {
		if err := a.analyzeArray(array); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// iterationSystem builds the iteration-space polytope lo_k(ī) ≤ i_k ≤
// hi_k(ī) over the n index variables.
func iterationSystem(nest *loop.Nest) *polyhedron.System {
	n := nest.Depth()
	s := polyhedron.NewSystem(n)
	for k, lv := range nest.Levels {
		// i_k − Σ lower.Coeffs·ī ≥ lower.Const
		lo := make([]int64, n)
		copy(lo, lv.Lower.Coeffs)
		for j := range lo {
			lo[j] = -lo[j]
		}
		lo[k] += 1
		s.AddGE(lo, lv.Lower.Const)
		// i_k − Σ upper.Coeffs·ī ≤ upper.Const
		hi := make([]int64, n)
		copy(hi, lv.Upper.Coeffs)
		for j := range hi {
			hi[j] = -hi[j]
		}
		hi[k] += 1
		s.AddLE(hi, lv.Upper.Const)
	}
	return s
}

// accesses lists every access to the named array in execution-order-stable
// statement order: for each statement, reads then write.
func accesses(nest *loop.Nest, array string) []Access {
	var out []Access
	for si, st := range nest.Body {
		for ri, r := range st.Reads {
			if r.Array == array {
				out = append(out, Access{Stmt: si, IsWrite: false, ReadIdx: ri, Ref: r})
			}
		}
		if st.Write.Array == array {
			out = append(out, Access{Stmt: si, IsWrite: true, Ref: st.Write})
		}
	}
	return out
}

func (a *Analysis) analyzeArray(array string) error {
	accs := accesses(a.Nest, array)
	h := a.Nest.ReferenceMatrix(array)
	if h == nil {
		return nil
	}
	hm := intlin.FromRows(h)

	// Pair relations for Def. 4: unordered pairs with distinct offsets.
	var seenPair [][]int64
	for i := 0; i < len(accs); i++ {
		for j := i + 1; j < len(accs); j++ {
			r := subVec(accs[i].Ref.Offset, accs[j].Ref.Offset)
			if isZeroVec(r) {
				continue // identical references; kernel handles reuse
			}
			if slices.ContainsFunc(seenPair, func(s []int64) bool { return equalUpToSign(s, r) }) {
				continue
			}
			seenPair = append(seenPair, r)
			rel := PairRelation{A: accs[i], B: accs[j], R: r}
			rel.Particular, _, rel.RationalSolvable = hm.Solve(r)
			if dio, ok := intlin.SolveDiophantine(hm, r); ok {
				rel.Dio = dio
				realizable, err := a.realizable(dio, nil)
				if err != nil {
					return err
				}
				rel.IntegerRealizable = realizable
			}
			a.pairRels[array] = append(a.pairRels[array], rel)
		}
	}

	// Dependences over ordered pairs (including self pairs for kernel
	// reuse).
	for i := 0; i < len(accs); i++ {
		for j := 0; j < len(accs); j++ {
			if err := a.dependBetween(array, hm, accs[i], accs[j], i == j); err != nil {
				return err
			}
		}
	}
	return nil
}

// dependBetween records a dependence src→dst if some realizable distance
// t̄ = ī_dst − ī_src orders src before dst (t̄ ≻ 0, or t̄ = 0 with src's
// within-iteration position earlier).
func (a *Analysis) dependBetween(array string, hm *intlin.Mat, src, dst Access, self bool) error {
	if self && !src.IsWrite {
		// A reference's input dependence with itself carries no
		// constraint the kernel does not already express; the paper
		// tracks self-reuse only through Ker(H). Self output dependences
		// (two iterations writing the same element) are kept because they
		// order writes.
		return nil
	}
	r := subVec(src.Ref.Offset, dst.Ref.Offset)
	dio, ok := intlin.SolveDiophantine(hm, r)
	if !ok {
		return nil
	}
	if self && len(dio.KernelBasis) == 0 {
		return nil // only t̄ = 0: the same access instance, not a dependence
	}
	// Positive-distance instance?
	pos, err := a.existsLexSigned(dio, +1)
	if err != nil {
		return err
	}
	// Loop-independent instance (t̄ = 0 realizable means r solvable with
	// t = 0, i.e. offsets map identically) with src earlier in the body.
	zero := false
	if !self && src.order() < dst.order() {
		zero, err = a.existsZero(dio)
		if err != nil {
			return err
		}
	}
	if !pos && !zero {
		return nil
	}
	kind := classify(src.IsWrite, dst.IsWrite)
	d := &Dependence{
		Array:        array,
		Kind:         kind,
		Src:          src,
		Dst:          dst,
		R:            r,
		Solution:     dio,
		ZeroDistance: zero,
	}
	if len(dio.KernelBasis) == 0 {
		d.Distance = dio.Particular
	}
	a.byArray[array] = append(a.byArray[array], d)
	return nil
}

func classify(srcWrite, dstWrite bool) Kind {
	switch {
	case srcWrite && dstWrite:
		return Output
	case srcWrite:
		return Flow
	case dstWrite:
		return Anti
	default:
		return Input
	}
}

// realizable reports whether some integer t̄ in the solution coset can be
// written as ī₂ − ī₁ with both iterations in the iteration space. extra,
// when non-nil, adds constraints on t̄ (affine rows over the kernel
// coefficients are derived internally).
//
// Variables of the feasibility system: ī₁ (n vars) then kernel
// coefficients c̄ (k vars); t̄ = particular + V·c̄ and ī₂ = ī₁ + t̄.
func (a *Analysis) realizable(dio *intlin.DiophantineSolution, extra []tConstraint) (bool, error) {
	n := a.Nest.Depth()
	k := len(dio.KernelBasis)
	sys := polyhedron.NewSystem(n + k)
	// ī₁ in iteration space.
	for _, q := range a.iterSys.Ineqs {
		coeffs := make([]int64, n+k)
		copy(coeffs, q.Coeffs)
		sys.AddLE(coeffs, q.Bound)
	}
	// ī₂ = ī₁ + t̄(c̄) in iteration space: substitute into each inequality.
	for _, q := range a.iterSys.Ineqs {
		coeffs := make([]int64, n+k)
		copy(coeffs, q.Coeffs)
		tail, bound := distanceRow(dio, q.Coeffs, q.Bound)
		copy(coeffs[n:], tail)
		sys.AddLE(coeffs, bound)
	}
	// Extra constraints on t̄: Σ_j w_j t_j (cmp) b with t_j affine in c̄.
	for _, tc := range extra {
		coeffs := make([]int64, n+k)
		tail, bound := distanceRow(dio, tc.w, tc.bound)
		copy(coeffs[n:], tail)
		switch tc.cmp {
		case cmpLE:
			sys.AddLE(coeffs, bound)
		case cmpGE:
			sys.AddGE(coeffs, bound)
		case cmpEQ:
			sys.AddEq(coeffs, bound)
		}
	}
	return sys.HasIntegerPoint()
}

// distanceRow rewrites Σ_j w_j·t_j ≤ b over the kernel coefficients c̄
// of t̄ = Particular + Σ_l c_l·KernelBasis[l]: it returns the row
// (w·KernelBasis[l])_l and the bound b − w·Particular.
func distanceRow(dio *intlin.DiophantineSolution, w []int64, b int64) ([]int64, int64) {
	row := make([]int64, len(dio.KernelBasis))
	for j, wj := range w {
		if wj == 0 {
			continue
		}
		b = intlin.MulAdd(b, intlin.Neg(wj), dio.Particular[j])
		for l, v := range dio.KernelBasis {
			row[l] = intlin.MulAdd(row[l], wj, v[j])
		}
	}
	return row, b
}

type cmpKind int

const (
	cmpLE cmpKind = iota
	cmpGE
	cmpEQ
)

// tConstraint is a linear constraint Σ w·t̄ (cmp) bound on the dependence
// distance vector.
type tConstraint struct {
	w     []int64
	cmp   cmpKind
	bound int64
}

// existsLexSigned reports whether a realizable distance with lexicographic
// sign `sign` (+1 for ≻0, −1 for ≺0) exists.
func (a *Analysis) existsLexSigned(dio *intlin.DiophantineSolution, sign int64) (bool, error) {
	n := a.Nest.Depth()
	for lead := 0; lead < n; lead++ {
		var extra []tConstraint
		for j := 0; j < lead; j++ {
			w := make([]int64, n)
			w[j] = 1
			extra = append(extra, tConstraint{w: w, cmp: cmpEQ, bound: 0})
		}
		w := make([]int64, n)
		w[lead] = 1
		if sign > 0 {
			extra = append(extra, tConstraint{w: w, cmp: cmpGE, bound: 1})
		} else {
			extra = append(extra, tConstraint{w: w, cmp: cmpLE, bound: -1})
		}
		ok, err := a.realizable(dio, extra)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// existsZero reports whether t̄ = 0 is in the solution coset and some
// iteration exists (loop-independent dependence).
func (a *Analysis) existsZero(dio *intlin.DiophantineSolution) (bool, error) {
	n := a.Nest.Depth()
	var extra []tConstraint
	for j := 0; j < n; j++ {
		w := make([]int64, n)
		w[j] = 1
		extra = append(extra, tConstraint{w: w, cmp: cmpEQ, bound: 0})
	}
	return a.realizable(dio, extra)
}

// Dependences returns the dependences of one array (src-before-dst order
// pairs), in deterministic order.
func (a *Analysis) Dependences(array string) []*Dependence {
	return a.byArray[array]
}

// AllDependences returns every dependence of the nest, sorted by array.
func (a *Analysis) AllDependences() []*Dependence {
	arrays := make([]string, 0, len(a.byArray))
	for arr := range a.byArray {
		arrays = append(arrays, arr)
	}
	sort.Strings(arrays)
	var out []*Dependence
	for _, arr := range arrays {
		out = append(out, a.byArray[arr]...)
	}
	return out
}

// HasFlow reports whether the array carries any flow dependence — the
// paper's fully/partially duplicable distinction (Definition 5).
func (a *Analysis) HasFlow(array string) bool {
	for _, d := range a.byArray[array] {
		if d.Kind == Flow {
			return true
		}
	}
	return false
}

// FullyDuplicable reports whether array A has no flow dependence
// (Definition 5).
func (a *Analysis) FullyDuplicable(array string) bool { return !a.HasFlow(array) }

// PairRelations returns the Def. 4 pair information of one array.
func (a *Analysis) PairRelations(array string) []PairRelation {
	return a.pairRels[array]
}

// DataReferencedVectors returns the distinct data-referenced vectors
// r̄ = c̄₁ − c̄₂ of one array (Definition 1), deduplicated up to sign.
func (a *Analysis) DataReferencedVectors(array string) [][]int64 {
	var out [][]int64
	for _, rel := range a.pairRels[array] {
		out = append(out, rel.R)
	}
	return out
}

// Summary renders the analysis: per-array dependences, data-referenced
// vectors, and duplicability classification.
func (a *Analysis) Summary() string {
	var b strings.Builder
	for _, array := range a.Nest.Arrays() {
		class := "fully duplicable (no flow dependence)"
		if !a.FullyDuplicable(array) {
			class = "partially duplicable (carries flow)"
		}
		fmt.Fprintf(&b, "array %s: %s\n", array, class)
		rv := a.DataReferencedVectors(array)
		if len(rv) > 0 {
			fmt.Fprintf(&b, "  data-referenced vectors: %v\n", rv)
		}
		for _, d := range a.Dependences(array) {
			dist := "(coset)"
			if d.Distance != nil {
				dist = fmt.Sprint(d.Distance)
			}
			fmt.Fprintf(&b, "  %s δ%s %s  distance %s\n", d.Src, d.Kind, d.Dst, dist)
		}
	}
	return b.String()
}

func subVec(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func isZeroVec(a []int64) bool {
	for _, x := range a {
		if x != 0 {
			return false
		}
	}
	return true
}

// equalUpToSign reports whether a = b or a = −b.
func equalUpToSign(a, b []int64) bool {
	neg := true
	for i := range a {
		neg = neg && a[i] == -b[i]
	}
	return neg || slices.Equal(a, b)
}
