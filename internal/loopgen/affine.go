package loopgen

// Affine-nest generation for the normalization conformance dimension:
// decorate a uniform base nest with exactly the non-uniformities the
// normalize pass claims to handle — symbolic offsets shared by every
// reference of an array, a singleton loop level with per-reference
// coefficients (compensated in the offsets), and uniformly dilated
// subscript rows — and pair it with the hand-uniformized twin computed
// by an independent mini-oracle (Uniformize). The conformance suite
// then proves normalize(affine) ≡ twin in plan, final state, and
// machine accounting.

import (
	"fmt"
	"math/rand"

	"commfree/internal/lang"
	"commfree/internal/loop"
)

// AffineCase is one generated differential test case.
type AffineCase struct {
	// Affine is the decorated nest: structurally valid, possibly
	// non-uniform and symbolic.
	Affine *lang.AffineNest
	// Twin is the hand-uniformized equivalent the pass must reproduce.
	Twin *loop.Nest
	// SymVals grounds every symbolic constant for differential
	// execution of the raw nest.
	SymVals map[string]int64
}

// Source renders the affine nest as DSL (the repro form).
func (c *AffineCase) Source() string { return lang.FormatAffineNest(c.Affine) }

// GenerateAffine draws a uniform base nest from cfg and decorates it
// with at least one normalizable non-uniformity. The returned case's
// Twin is Uniformize of the decorated concrete nest.
func GenerateAffine(rnd *rand.Rand, cfg Config) *AffineCase {
	base := Generate(rnd, cfg)
	nest := base.Clone()
	syms := make([]lang.StmtSyms, len(nest.Body))
	for s, st := range nest.Body {
		syms[s] = lang.StmtSyms{
			Write: lang.RefSyms{Rows: make([][]lang.SymTerm, st.Write.Dim())},
			Reads: make([]lang.RefSyms, len(st.Reads)),
		}
		for i, r := range st.Reads {
			syms[s].Reads[i] = lang.RefSyms{Rows: make([][]lang.SymTerm, r.Dim())}
		}
	}
	symVals := map[string]int64{}

	decorated := false
	// Decoration 1: symbolic offsets — every reference of a chosen array
	// gains the identical symbolic sum on one subscript row.
	if rnd.Intn(2) == 0 {
		decorated = decorateSymbolic(rnd, nest, syms, symVals) || decorated
	}
	// Decoration 2: a singleton loop level with per-reference
	// coefficients on arrays with ≥ 2 references, compensated in the
	// offsets so folding restores the base form.
	if !decorated || rnd.Intn(2) == 0 {
		decorated = decorateSingleton(rnd, nest) || decorated
	}
	if !decorated {
		decorated = decorateSymbolic(rnd, nest, syms, symVals)
	}
	// Decoration 3 (optional extra): dilate one subscript row of one
	// array uniformly — compression undoes it.
	if decorated && rnd.Intn(3) == 0 {
		decorateDilation(rnd, nest)
	}
	if !decorated {
		// Base has a single single-reference array everywhere and no row
		// to decorate — fall back to a fresh draw.
		return GenerateAffine(rnd, cfg)
	}
	a := &lang.AffineNest{Nest: nest, Syms: syms}
	return &AffineCase{Affine: a, Twin: Uniformize(nest), SymVals: symVals}
}

// decorateSymbolic adds a shared symbolic offset term to every reference
// of one randomly chosen array (row 0). Returns false when the nest has
// no arrays (impossible for generated nests) — always true otherwise.
func decorateSymbolic(rnd *rand.Rand, nest *loop.Nest, syms []lang.StmtSyms, symVals map[string]int64) bool {
	arrays := nest.Arrays()
	if len(arrays) == 0 {
		return false
	}
	array := arrays[rnd.Intn(len(arrays))]
	name := fmt.Sprintf("d%d", len(symVals)+1)
	coeff := int64(1 + rnd.Intn(2))
	if rnd.Intn(2) == 0 {
		coeff = -coeff
	}
	term := lang.SymTerm{Name: name, Coeff: coeff, Level: -1}
	row := 0
	for s, st := range nest.Body {
		if st.Write.Array == array && row < st.Write.Dim() {
			syms[s].Write.Rows[row] = append(syms[s].Write.Rows[row], term)
		}
		for i, r := range st.Reads {
			if r.Array == array && row < r.Dim() {
				syms[s].Reads[i].Rows[row] = append(syms[s].Reads[i].Rows[row], term)
			}
		}
	}
	symVals[name] = int64(rnd.Intn(7) - 3)
	return true
}

// decorateSingleton appends an innermost loop level pinned to a single
// constant value c, gives every reference of arrays with ≥ 2 references
// its own coefficient in the new column (at least two differing), and
// compensates the offsets so the data indices are unchanged. Returns
// false when no array has two references.
func decorateSingleton(rnd *rand.Rand, nest *loop.Nest) bool {
	counts := map[string]int{}
	for _, st := range nest.Body {
		counts[st.Write.Array]++
		for _, r := range st.Reads {
			counts[r.Array]++
		}
	}
	multi := map[string]bool{}
	for a, n := range counts {
		if n >= 2 {
			multi[a] = true
		}
	}
	if len(multi) == 0 {
		return false
	}
	c := int64(1 + rnd.Intn(3))
	depth := nest.Depth()
	// Extend every bound with a zero column, then append the level.
	for k := range nest.Levels {
		nest.Levels[k].Lower.Coeffs = append(nest.Levels[k].Lower.Coeffs, 0)
		nest.Levels[k].Upper.Coeffs = append(nest.Levels[k].Upper.Coeffs, 0)
	}
	nest.Levels = append(nest.Levels, loop.Level{
		Name:  fmt.Sprintf("i%d", depth+1),
		Lower: loop.ConstAffine(depth+1, c),
		Upper: loop.ConstAffine(depth+1, c),
	})
	// Per-array per-reference coefficients on row 0 of the new column;
	// differing across references so the nest is genuinely non-uniform.
	perArray := map[string]func() int64{}
	for a := range multi {
		seq := 0
		perArray[a] = func() int64 {
			seq++
			// 0, 1, 2, ... then random: guarantees the first two refs
			// differ while later ones vary freely.
			if seq <= 2 {
				return int64(seq - 1)
			}
			return int64(rnd.Intn(5) - 2)
		}
	}
	decorate := func(ref *loop.Ref) {
		q := int64(0)
		if gen, ok := perArray[ref.Array]; ok {
			q = gen()
		}
		for row := range ref.H {
			qq := int64(0)
			if row == 0 {
				qq = q
			}
			ref.H[row] = append(ref.H[row], qq)
			ref.Offset[row] -= qq * c
		}
	}
	for _, st := range nest.Body {
		decorate(&st.Write)
		for i := range st.Reads {
			decorate(&st.Reads[i])
		}
	}
	return true
}

// decorateDilation multiplies one subscript row of one array by g ∈
// {2,3} in every reference and rewrites offsets to g·off + ρ, picking a
// row whose coefficient gcd is 1 so compression recovers exactly the
// undecorated form.
func decorateDilation(rnd *rand.Rand, nest *loop.Nest) {
	type target struct {
		array string
		row   int
	}
	var targets []target
	for _, array := range nest.Arrays() {
		refs, _, _ := nest.RefsOf(array)
		if len(refs) == 0 {
			continue
		}
		for row := range refs[0].H {
			g := int64(0)
			for _, ref := range refs {
				for _, c := range ref.H[row] {
					g = gcd64(g, abs64(c))
				}
			}
			if g == 1 {
				targets = append(targets, target{array: array, row: row})
			}
		}
	}
	if len(targets) == 0 {
		return
	}
	t := targets[rnd.Intn(len(targets))]
	g := int64(2 + rnd.Intn(2))
	rho := int64(rnd.Intn(int(g)))
	for _, st := range nest.Body {
		refs := []*loop.Ref{&st.Write}
		for i := range st.Reads {
			refs = append(refs, &st.Reads[i])
		}
		for _, ref := range refs {
			if ref.Array != t.array {
				continue
			}
			for c := range ref.H[t.row] {
				ref.H[t.row][c] *= g
			}
			ref.Offset[t.row] = g*ref.Offset[t.row] + rho
		}
	}
}

// Uniformize is the independent mini-oracle for the normalize pass's
// concrete rewrites: fold singleton constant levels into offsets, then
// compress uniformly dilated rows (gcd g ≥ 2 with all offsets congruent
// mod g). It deliberately re-implements the rules from the definition —
// not by calling the pass — so the conformance comparison is a true
// differential test. Symbolic terms are not its concern: they live
// beside the nest and normalization simply drops the shared sums.
func Uniformize(nest *loop.Nest) *loop.Nest {
	out := nest.Clone()
	refsIn := func(st *loop.Statement) []*loop.Ref {
		rs := []*loop.Ref{&st.Write}
		for i := range st.Reads {
			rs = append(rs, &st.Reads[i])
		}
		return rs
	}
	// Fold: level pinned to constant c contributes H[row][k]·c.
	for k, lv := range out.Levels {
		if !lv.Lower.IsConst() || !lv.Upper.IsConst() || lv.Lower.Const != lv.Upper.Const {
			continue
		}
		c := lv.Lower.Const
		for _, st := range out.Body {
			for _, ref := range refsIn(st) {
				for row := range ref.H {
					if k < len(ref.H[row]) && ref.H[row][k] != 0 {
						ref.Offset[row] += ref.H[row][k] * c
						ref.H[row][k] = 0
					}
				}
			}
		}
	}
	// Compress: per array, per row.
	for _, array := range out.Arrays() {
		var refs []*loop.Ref
		for _, st := range out.Body {
			for _, ref := range refsIn(st) {
				if ref.Array == array {
					refs = append(refs, ref)
				}
			}
		}
		if len(refs) == 0 {
			continue
		}
		for row := range refs[0].H {
			g := int64(0)
			for _, ref := range refs {
				for _, c := range ref.H[row] {
					g = gcd64(g, abs64(c))
				}
			}
			if g < 2 {
				continue
			}
			rho := ((refs[0].Offset[row] % g) + g) % g
			ok := true
			for _, ref := range refs {
				if ((ref.Offset[row]%g)+g)%g != rho {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, ref := range refs {
				for c := range ref.H[row] {
					ref.H[row][c] /= g
				}
				ref.Offset[row] = (ref.Offset[row] - rho) / g
			}
		}
	}
	return out
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ShrinkAffine greedily minimizes an affine nest while fails(nest)
// remains true, mirroring Shrink's moves but without the uniformity
// constraint: drop a statement or read (with its symbolic rows), tighten
// an extent, drop a symbolic term array-wide, and pull per-reference
// coefficients and offsets toward zero. Every candidate still satisfies
// ValidateStructure. The input is never mutated.
func ShrinkAffine(a *lang.AffineNest, fails func(*lang.AffineNest) bool) *lang.AffineNest {
	if !fails(a) {
		return a
	}
	cur := cloneAffineNest(a)
	calls := 0
	for improved := true; improved && calls < shrinkBudget; {
		improved = false
		for _, cand := range affineCandidates(cur) {
			if cand.Nest.ValidateStructure() != nil || Size(cand.Nest) >= Size(cur.Nest) {
				continue
			}
			calls++
			if fails(cand) {
				cur = cand
				improved = true
				break
			}
			if calls >= shrinkBudget {
				break
			}
		}
	}
	return cur
}

func cloneAffineNest(a *lang.AffineNest) *lang.AffineNest {
	out := &lang.AffineNest{Nest: a.Nest.Clone(), Syms: make([]lang.StmtSyms, len(a.Syms))}
	for s, ss := range a.Syms {
		out.Syms[s] = cloneStmtSyms(ss)
	}
	return out
}

func cloneStmtSyms(ss lang.StmtSyms) lang.StmtSyms {
	out := lang.StmtSyms{Write: cloneRefSyms(ss.Write), Reads: make([]lang.RefSyms, len(ss.Reads))}
	for i, rs := range ss.Reads {
		out.Reads[i] = cloneRefSyms(rs)
	}
	return out
}

func cloneRefSyms(rs lang.RefSyms) lang.RefSyms {
	out := lang.RefSyms{Rows: make([][]lang.SymTerm, len(rs.Rows))}
	for i, row := range rs.Rows {
		out.Rows[i] = append([]lang.SymTerm(nil), row...)
	}
	return out
}

// affineCandidates enumerates one-step shrinks of an affine nest.
func affineCandidates(a *lang.AffineNest) []*lang.AffineNest {
	var out []*lang.AffineNest

	// Drop one statement (with its symbolic rows).
	if len(a.Nest.Body) > 1 {
		for s := range a.Nest.Body {
			c := cloneAffineNest(a)
			c.Nest.Body = append(c.Nest.Body[:s], c.Nest.Body[s+1:]...)
			if s < len(c.Syms) {
				c.Syms = append(c.Syms[:s], c.Syms[s+1:]...)
			}
			out = append(out, c)
		}
	}

	// Drop one read (with its symbolic rows).
	for s, st := range a.Nest.Body {
		for r := range st.Reads {
			c := cloneAffineNest(a)
			c.Nest.Body[s].Reads = append(c.Nest.Body[s].Reads[:r], c.Nest.Body[s].Reads[r+1:]...)
			if s < len(c.Syms) && r < len(c.Syms[s].Reads) {
				c.Syms[s].Reads = append(c.Syms[s].Reads[:r], c.Syms[s].Reads[r+1:]...)
			}
			out = append(out, c)
		}
	}

	// Tighten a constant extent.
	for k, lv := range a.Nest.Levels {
		if !lv.Lower.IsConst() || !lv.Upper.IsConst() {
			continue
		}
		if ext := lv.Upper.Const - lv.Lower.Const + 1; ext > 2 {
			c := cloneAffineNest(a)
			c.Nest.Levels[k].Upper.Const = lv.Lower.Const + 1
			out = append(out, c)
			c = cloneAffineNest(a)
			c.Nest.Levels[k].Upper.Const = lv.Upper.Const - 1
			out = append(out, c)
		}
	}

	// Drop one symbolic term everywhere it appears (term identity =
	// name), keeping the shared-sum invariant intact.
	for _, name := range a.SymNames() {
		c := cloneAffineNest(a)
		for s := range c.Syms {
			dropTerm(&c.Syms[s].Write, name)
			for i := range c.Syms[s].Reads {
				dropTerm(&c.Syms[s].Reads[i], name)
			}
		}
		out = append(out, c)
	}

	// Halve one H entry or offset of one reference toward zero.
	for s, st := range a.Nest.Body {
		for ri := -1; ri < len(st.Reads); ri++ {
			ref := st.Write
			if ri >= 0 {
				ref = st.Reads[ri]
			}
			for row := range ref.H {
				for col, v := range ref.H[row] {
					if v == 0 {
						continue
					}
					c := cloneAffineNest(a)
					tgt := &c.Nest.Body[s].Write
					if ri >= 0 {
						tgt = &c.Nest.Body[s].Reads[ri]
					}
					tgt.H[row][col] = v / 2
					out = append(out, c)
				}
				if o := ref.Offset[row]; o != 0 {
					c := cloneAffineNest(a)
					tgt := &c.Nest.Body[s].Write
					if ri >= 0 {
						tgt = &c.Nest.Body[s].Reads[ri]
					}
					tgt.Offset[row] = o / 2
					out = append(out, c)
				}
			}
		}
	}
	return out
}

func dropTerm(rs *lang.RefSyms, name string) {
	for i, row := range rs.Rows {
		var keep []lang.SymTerm
		for _, t := range row {
			if t.Name != name {
				keep = append(keep, t)
			}
		}
		rs.Rows[i] = keep
	}
}
