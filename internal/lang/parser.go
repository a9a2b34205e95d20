package lang

import (
	"fmt"
	"strconv"
	"strings"

	"commfree/internal/loop"
)

// Parse parses DSL source containing exactly one loop nest.
func Parse(src string) (*loop.Nest, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	nest, err := p.parseNest()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errorf(t, "unexpected trailing input %q", t.text)
	}
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	return nest, nil
}

// ParseProgram parses DSL source containing one or more consecutive loop
// nests — a whole program in the paper's model, where each nest is
// compiled independently.
func ParseProgram(src string) ([]*loop.Nest, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	var nests []*loop.Nest
	for p.cur().kind != tokEOF {
		p.indexNames = nil
		p.subs = nil
		nest, err := p.parseNest()
		if err != nil {
			return nil, err
		}
		if err := nest.Validate(); err != nil {
			return nil, err
		}
		nests = append(nests, nest)
	}
	if len(nests) == 0 {
		return nil, p.errorf(p.cur(), "expected 'for'")
	}
	return nests, nil
}

// ParseAffine parses DSL source containing exactly one loop nest in
// affine mode: references need not be uniformly generated, and array
// subscripts may contain symbolic constants (identifiers that name no
// loop index), both as loop-invariant offsets (A[i+d]) and as symbolic
// strides (A[N*i]). The result satisfies loop.Nest.ValidateStructure but
// not necessarily ValidateUniform; the normalize pass takes it from
// there. Sources accepted by Parse yield the identical nest here.
func ParseAffine(src string) (*AffineNest, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src, affine: true}
	nest, err := p.parseNest()
	if err != nil {
		return nil, err
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errorf(t, "unexpected trailing input %q", t.text)
	}
	if err := nest.ValidateStructure(); err != nil {
		return nil, err
	}
	return &AffineNest{Nest: nest, Syms: p.stmtSyms}, nil
}

// MustParse is Parse that panics on error (for tests and fixtures).
func MustParse(src string) *loop.Nest {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	toks []token
	pos  int
	src  string
	// indexOf maps a loop index name to its 0-based level while in scope.
	indexNames []string
	// subs holds the per-level normalization substitution
	// i_original = base + scale·i_normalized, applied to every affine
	// expression and RHS index use. Identity is {base: 0, scale: 1}.
	subs []levelSub
	// affine enables the widened grammar (ParseAffine): non-uniform
	// references, symbolic constants in subscripts, multi-bracket
	// subscript spelling.
	affine bool
	// subDepth > 0 while parsing subscript expressions; only there do
	// unknown identifiers become symbolic constants in affine mode.
	subDepth int
	// refSyms collects one RefSyms per parseRef call, in parse order,
	// when affine; stmtSyms groups them per statement.
	refSyms  []RefSyms
	stmtSyms []StmtSyms
}

// levelSub is the step-normalization substitution of one loop level.
type levelSub struct {
	base  int64
	scale int64
}

func (p *parser) hasStrides() bool {
	for _, s := range p.subs {
		if s.scale != 1 || s.base != 0 {
			return true
		}
	}
	return false
}

// normalizeAffine applies the level substitutions to an affine function
// expressed over the original indices, yielding one over the normalized
// indices.
func (p *parser) normalizeAffine(a loop.Affine) loop.Affine {
	if len(p.subs) == 0 {
		return a
	}
	out := loop.Affine{Coeffs: make([]int64, len(a.Coeffs)), Const: a.Const}
	for k, c := range a.Coeffs {
		s := levelSub{scale: 1}
		if k < len(p.subs) {
			s = p.subs[k]
		}
		out.Coeffs[k] = c * s.scale
		out.Const += c * s.base
	}
	return out
}

// rewriteVars replaces every original-index use in the AST with
// base + scale·index over the normalized indices.
func (p *parser) rewriteVars(e Expr) Expr {
	switch v := e.(type) {
	case *VarRef:
		s := levelSub{scale: 1}
		if v.Level < len(p.subs) {
			s = p.subs[v.Level]
		}
		if s.scale == 1 && s.base == 0 {
			return v
		}
		var out Expr = v
		if s.scale != 1 {
			out = &BinOp{Op: '*', L: &NumLit{Value: float64(s.scale)}, R: out}
		}
		if s.base != 0 {
			out = &BinOp{Op: '+', L: &NumLit{Value: float64(s.base)}, R: out}
		}
		return out
	case *BinOp:
		return &BinOp{Op: v.Op, L: p.rewriteVars(v.L), R: p.rewriteVars(v.R)}
	case *Neg:
		return &Neg{X: p.rewriteVars(v.X)}
	default:
		return e
	}
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokKind) (token, error) {
	t := p.cur()
	if t.kind != kind {
		return t, p.errorf(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return p.advance(), nil
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// parseNest parses the full nest: a tower of for headers, a body of
// assignment statements, then matching 'end's.
func (p *parser) parseNest() (*loop.Nest, error) {
	type header struct {
		name     string
		loE, hiE Expr
		step     int64
		tok      token
	}
	var headers []header
	for p.cur().kind == tokFor {
		p.advance()
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		for _, prev := range headers {
			if prev.name == nameTok.text {
				return nil, p.errorf(nameTok, "duplicate loop index %q", nameTok.text)
			}
		}
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		p.indexNames = append(p.indexNames, nameTok.text)
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokTo); err != nil {
			return nil, err
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		step := int64(1)
		if p.cur().kind == tokStep {
			stepTok := p.advance()
			se, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s, ok := constValue(se)
			if !ok || s == 0 {
				return nil, p.errorf(stepTok, "step must be a nonzero integer constant")
			}
			step = s
		}
		headers = append(headers, header{name: nameTok.text, loE: lo, hiE: hi, step: step, tok: nameTok})
	}
	if len(headers) == 0 {
		return nil, p.errorf(p.cur(), "expected 'for'")
	}
	n := len(headers)

	// Step normalization (the paper's model requires unit-stride loops):
	// a level "for i = lo to hi step s" becomes "for i' = 1 to
	// ⌊(hi−lo)/s⌋+1" with the substitution i = (lo − s) + s·i' folded
	// into every bound, subscript, and right-hand-side index use. A
	// negative step (a reversed loop) uses the same substitution: the
	// scale is negative and the trip count is ⌊(lo−hi)/|s|⌋+1.
	p.subs = make([]levelSub, n)
	for k := range p.subs {
		p.subs[k] = levelSub{scale: 1}
	}
	for k, h := range headers {
		if h.step == 1 {
			continue
		}
		lo, okLo := constValue(h.loE)
		hi, okHi := constValue(h.hiE)
		if !okLo || !okHi {
			return nil, p.errorf(h.tok, "strided loop %q requires constant bounds", h.name)
		}
		if (h.step > 0 && hi < lo) || (h.step < 0 && hi > lo) {
			return nil, p.errorf(h.tok, "strided loop %q is empty (%d to %d step %d)", h.name, lo, hi, h.step)
		}
		p.subs[k] = levelSub{base: lo - h.step, scale: h.step}
	}

	// Convert header bound expressions to affine functions over all n
	// indices; Validate() later rejects inner-index references. toAffine
	// applies the normalization substitution, so bounds that reference a
	// strided outer index come out right automatically.
	levels := make([]loop.Level, n)
	for k, h := range headers {
		if h.step != 1 {
			lo, _ := constValue(h.loE)
			hi, _ := constValue(h.hiE)
			count := (hi-lo)/h.step + 1 // exact for both signs: (hi−lo) and step share sign
			levels[k] = loop.Level{
				Name:  h.name,
				Lower: loop.ConstAffine(n, 1),
				Upper: loop.ConstAffine(n, count),
			}
			continue
		}
		loA, err := p.toAffine(h.loE, n, h.tok)
		if err != nil {
			return nil, err
		}
		hiA, err := p.toAffine(h.hiE, n, h.tok)
		if err != nil {
			return nil, err
		}
		levels[k] = loop.Level{Name: h.name, Lower: loA, Upper: hiA}
	}

	// Statements until the first 'end'.
	var body []*loop.Statement
	for p.cur().kind == tokIdent {
		st, err := p.parseStatement(n)
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	// Matching 'end' terminators (exactly n, tolerating fewer is an error).
	for k := 0; k < n; k++ {
		if _, err := p.expect(tokEnd); err != nil {
			return nil, err
		}
	}
	return &loop.Nest{Levels: levels, Body: body}, nil
}

// parseStatement parses "[label:] A[subs] = expr".
func (p *parser) parseStatement(n int) (*loop.Statement, error) {
	first, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	label := ""
	arrayTok := first
	if p.cur().kind == tokColon {
		// "S1 : A[...] = ..." — first was the label.
		p.advance()
		label = first.text
		arrayTok, err = p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
	}
	if p.cur().kind != tokLBracket {
		return nil, p.errorf(p.cur(), "expected '[' after array %q", arrayTok.text)
	}
	symStart := len(p.refSyms)
	writeRef, err := p.parseRef(arrayTok.text, n)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return nil, err
	}
	var reads []loop.Ref
	rhsStart := p.cur().start
	rhs, err := p.parseRHS(n, &reads)
	if err != nil {
		return nil, err
	}
	rhsEnd := p.cur().start
	source := ""
	// Verbatim RHS text is only valid when no step normalization changed
	// the meaning of the index variables.
	if !p.hasStrides() && rhsStart >= 0 && rhsEnd >= rhsStart && rhsEnd <= len(p.src) {
		source = strings.TrimSpace(p.src[rhsStart:rhsEnd])
	}
	if p.affine {
		// parseRef calls happen strictly in (write, reads-by-slot) order —
		// array references are rejected inside subscripts, so calls never
		// nest — making this slice-off exact.
		rs := p.refSyms[symStart:]
		st := StmtSyms{Write: rs[0], Reads: append([]RefSyms(nil), rs[1:]...)}
		p.stmtSyms = append(p.stmtSyms, st)
	}
	return &loop.Statement{
		SourceRHS: source,
		Label:     label,
		Write:     writeRef,
		Reads:     reads,
		Tree:      toTree(p.rewriteVars(rhs)),
	}, nil
}

// toTree lowers the parsed right-hand side into loop.ExprTree, node for
// node — the statement's semantics from here on.
func toTree(e Expr) *loop.ExprTree {
	switch v := e.(type) {
	case *NumLit:
		return &loop.ExprTree{Op: loop.ExprConst, Val: v.Value}
	case *VarRef:
		return &loop.ExprTree{Op: loop.ExprIndex, Arg: v.Level}
	case *ArrRef:
		return &loop.ExprTree{Op: loop.ExprRead, Arg: v.Slot}
	case *BinOp:
		var op loop.ExprOp
		switch v.Op {
		case '+':
			op = loop.ExprAdd
		case '-':
			op = loop.ExprSub
		case '*':
			op = loop.ExprMul
		default:
			op = loop.ExprDiv
		}
		return &loop.ExprTree{Op: op, L: toTree(v.L), R: toTree(v.R)}
	case *Neg:
		return &loop.ExprTree{Op: loop.ExprNeg, L: toTree(v.X)}
	}
	panic(fmt.Errorf("lang: unknown expression node %T", e))
}

// parseRef parses the subscripts after an array name — either the comma
// form "[e1, e2, ...]" or the multi-bracket spelling "[e1][e2]...", which
// may be mixed — converting each subscript to one row of H and one offset
// component. In affine mode each row's symbolic terms are collected into
// p.refSyms alongside.
func (p *parser) parseRef(array string, n int) (loop.Ref, error) {
	open, err := p.expect(tokLBracket)
	if err != nil {
		return loop.Ref{}, err
	}
	p.subDepth++
	defer func() { p.subDepth-- }()
	var h [][]int64
	var off []int64
	var symRows [][]SymTerm
	for {
		e, err := p.parseExpr()
		if err != nil {
			return loop.Ref{}, err
		}
		var a loop.Affine
		var terms []SymTerm
		if p.affine {
			a, terms, err = p.toAffineSym(e, n, open)
		} else {
			a, err = p.toAffine(e, n, open)
		}
		if err != nil {
			return loop.Ref{}, err
		}
		h = append(h, a.Coeffs)
		off = append(off, a.Const)
		symRows = append(symRows, terms)
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return loop.Ref{}, err
		}
		if p.cur().kind == tokLBracket {
			p.advance()
			continue
		}
		break
	}
	if p.affine {
		p.refSyms = append(p.refSyms, RefSyms{Rows: symRows})
	}
	return loop.Ref{Array: array, H: h, Offset: off}, nil
}

// parseRHS parses the right-hand side, collecting array reads.
func (p *parser) parseRHS(n int, reads *[]loop.Ref) (Expr, error) {
	return p.parseAddSub(n, reads, true)
}

// parseExpr parses an index-only expression (bounds and subscripts).
func (p *parser) parseExpr() (Expr, error) {
	return p.parseAddSub(0, nil, false)
}

func (p *parser) parseAddSub(n int, reads *[]loop.Ref, allowArrays bool) (Expr, error) {
	l, err := p.parseMulDiv(n, reads, allowArrays)
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tokPlus:
			p.advance()
			r, err := p.parseMulDiv(n, reads, allowArrays)
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: '+', L: l, R: r}
		case tokMinus:
			p.advance()
			r, err := p.parseMulDiv(n, reads, allowArrays)
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: '-', L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMulDiv(n int, reads *[]loop.Ref, allowArrays bool) (Expr, error) {
	l, err := p.parseUnary(n, reads, allowArrays)
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().kind {
		case tokStar:
			p.advance()
			r, err := p.parseUnary(n, reads, allowArrays)
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: '*', L: l, R: r}
		case tokSlash:
			p.advance()
			r, err := p.parseUnary(n, reads, allowArrays)
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: '/', L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary(n int, reads *[]loop.Ref, allowArrays bool) (Expr, error) {
	switch t := p.cur(); t.kind {
	case tokMinus:
		p.advance()
		x, err := p.parseUnary(n, reads, allowArrays)
		if err != nil {
			return nil, err
		}
		return &Neg{X: x}, nil
	case tokPlus:
		p.advance()
		return p.parseUnary(n, reads, allowArrays)
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t, "bad number %q", t.text)
		}
		lit := &NumLit{Value: v}
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			lit.exact, lit.isInt = i, true
		}
		// Implicit multiplication: "2i" means 2*i — but only when the
		// identifier is adjacent to the number, so a statement label on
		// the next line ("... to 4\nS1: ...") is not swallowed.
		if p.cur().kind == tokIdent && p.cur().adjacentTo(t) {
			rhs, err := p.parseUnary(n, reads, allowArrays)
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: '*', L: lit, R: rhs}, nil
		}
		return lit, nil
	case tokIdent:
		p.advance()
		if p.cur().kind == tokLBracket {
			if !allowArrays {
				return nil, p.errorf(t, "array reference %q not allowed here", t.text)
			}
			ref, err := p.parseRef(t.text, n)
			if err != nil {
				return nil, err
			}
			slot := len(*reads)
			*reads = append(*reads, ref)
			return &ArrRef{Text: ref.String(), Slot: slot}, nil
		}
		// A plain identifier: loop index if in scope. In right-hand sides
		// an unknown identifier is a symbolic scalar constant treated as 1
		// (Example 3's illustration uses D, F, G, K; they affect no
		// analysis). In bounds and subscripts unknown identifiers are
		// errors — a bound may reference only already-declared indices.
		for lvl, name := range p.indexNames {
			if name == t.text {
				return &VarRef{Name: t.text, Level: lvl}, nil
			}
		}
		if !allowArrays {
			// In affine mode an unknown identifier inside a subscript is a
			// symbolic constant; in bounds (and everywhere in strict mode)
			// it stays an error.
			if p.affine && p.subDepth > 0 {
				return &SymRef{Name: t.text}, nil
			}
			return nil, p.errorf(t, "unknown identifier %q: bounds and subscripts may reference only inner/outer loop indices already declared", t.text)
		}
		return &NumLit{Value: 1}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseAddSub(n, reads, allowArrays)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errorf(p.cur(), "unexpected %s %q in expression", p.cur().kind, p.cur().text)
}

// toAffine lowers an index expression to an affine function of the n loop
// indices, rejecting nonlinear terms: toAffineSym where no symbolic term
// may appear (strict mode and bounds never parse one).
func (p *parser) toAffine(e Expr, n int, at token) (loop.Affine, error) {
	a, terms, err := p.toAffineSym(e, n, at)
	if err == nil && len(terms) > 0 {
		err = p.errorf(at, "symbolic constant %q in index expression", terms[0].Name)
	}
	return a, err
}

// toAffineSym lowers a subscript expression to an affine function of the
// n loop indices plus a list of symbolic terms (affine mode): SymRef
// leaves become offset terms, and products of a symbolic constant with a
// loop index become stride terms. Step-normalization substitutions are
// applied to both parts.
func (p *parser) toAffineSym(e Expr, n int, at token) (loop.Affine, []SymTerm, error) {
	coeffs := make([]int64, n)
	konst := int64(0)
	type symKey struct {
		name  string
		level int
	}
	sym := map[symKey]int64{}
	var walk func(e Expr, scale int64) error
	walk = func(e Expr, scale int64) error {
		switch v := e.(type) {
		case *NumLit:
			c, ok := v.integer()
			if !ok {
				return p.errorf(at, "non-integer constant %g in index expression", v.Value)
			}
			konst += scale * c
			return nil
		case *VarRef:
			if v.Level >= n {
				return p.errorf(at, "index %q out of scope", v.Name)
			}
			coeffs[v.Level] += scale
			return nil
		case *SymRef:
			sym[symKey{name: v.Name, level: -1}] += scale
			return nil
		case *Neg:
			return walk(v.X, -scale)
		case *BinOp:
			switch v.Op {
			case '+':
				if err := walk(v.L, scale); err != nil {
					return err
				}
				return walk(v.R, scale)
			case '-':
				if err := walk(v.L, scale); err != nil {
					return err
				}
				return walk(v.R, -scale)
			case '*':
				// A constant side scales the other.
				if c, ok := constValue(v.L); ok {
					return walk(v.R, scale*c)
				}
				if c, ok := constValue(v.R); ok {
					return walk(v.L, scale*c)
				}
				// Otherwise the only linear product is one symbolic
				// constant times one loop index (a symbolic stride), up to
				// constant factors anywhere in the chain.
				var factors []Expr
				mulFactors(e, &factors)
				c := int64(1)
				var sr *SymRef
				var vr *VarRef
				rest := 0
				for _, f := range factors {
					if cv, ok := constValue(f); ok {
						c *= cv
						continue
					}
					rest++
					switch fv := f.(type) {
					case *SymRef:
						sr = fv
					case *VarRef:
						vr = fv
					}
				}
				if rest == 2 && sr != nil && vr != nil {
					if vr.Level >= n {
						return p.errorf(at, "index %q out of scope", vr.Name)
					}
					sym[symKey{name: sr.Name, level: vr.Level}] += scale * c
					return nil
				}
				return p.errorf(at, "nonlinear index expression %s", e)
			case '/':
				if c, ok := constValue(v.R); ok && c != 0 {
					if lc, ok := constValue(v.L); ok && lc%c == 0 {
						konst += scale * (lc / c)
						return nil
					}
				}
				return p.errorf(at, "division in index expression %s", e)
			}
		case *ArrRef:
			return p.errorf(at, "array reference in index expression")
		}
		return p.errorf(at, "unsupported index expression %s", e)
	}
	if err := walk(e, 1); err != nil {
		return loop.Affine{}, nil, err
	}
	concrete := p.normalizeAffine(loop.Affine{Coeffs: coeffs, Const: konst})
	if len(sym) == 0 {
		return concrete, nil, nil
	}
	// Apply step normalization: the concrete part via normalizeAffine, and
	// each symbolic stride term N·i_k under i_k = base + scale·i'_k, which
	// contributes N·base to the offset terms and rescales the stride.
	var terms []SymTerm
	for k, c := range sym {
		if c == 0 {
			continue
		}
		if k.level < 0 {
			terms = append(terms, SymTerm{Name: k.name, Coeff: c, Level: -1})
			continue
		}
		s := levelSub{scale: 1}
		if k.level < len(p.subs) {
			s = p.subs[k.level]
		}
		terms = append(terms, SymTerm{Name: k.name, Coeff: c * s.scale, Level: k.level})
		if s.base != 0 {
			terms = append(terms, SymTerm{Name: k.name, Coeff: c * s.base, Level: -1})
		}
	}
	// Merge any offset terms the substitution produced with existing ones.
	merged := map[symKey]int64{}
	for _, t := range terms {
		merged[symKey{name: t.Name, level: t.Level}] += t.Coeff
	}
	terms = terms[:0]
	for k, c := range merged {
		if c != 0 {
			terms = append(terms, SymTerm{Name: k.name, Coeff: c, Level: k.level})
		}
	}
	sortTerms(terms)
	return concrete, terms, nil
}

// mulFactors flattens a multiplicative chain into its factors, folding
// unary negation into a -1 factor.
func mulFactors(e Expr, out *[]Expr) {
	switch v := e.(type) {
	case *BinOp:
		if v.Op == '*' {
			mulFactors(v.L, out)
			mulFactors(v.R, out)
			return
		}
	case *Neg:
		*out = append(*out, &NumLit{Value: -1})
		mulFactors(v.X, out)
		return
	}
	*out = append(*out, e)
}

// constValue returns the integer value of a constant expression subtree.
func constValue(e Expr) (int64, bool) {
	switch v := e.(type) {
	case *NumLit:
		return v.integer()
	case *Neg:
		if c, ok := constValue(v.X); ok {
			return -c, true
		}
	case *BinOp:
		l, lok := constValue(v.L)
		r, rok := constValue(v.R)
		if lok && rok {
			switch v.Op {
			case '+':
				return l + r, true
			case '-':
				return l - r, true
			case '*':
				return l * r, true
			case '/':
				if r != 0 && l%r == 0 {
					return l / r, true
				}
			}
		}
	}
	return 0, false
}
