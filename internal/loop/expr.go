package loop

import "fmt"

// ExprTree is the one representation of a statement's right-hand side:
// the sequential reference and the map oracle evaluate it (Eval), the
// kernel engine lowers it (internal/exec/kernel), and the formatter and
// code generator spell it (Render). Lowerings evaluate the nodes in
// Eval's post-order (left, right, op) with every intermediate rounded
// to float64, so a lowered kernel reproduces Eval bit for bit.
//
// A nil Tree on a statement means the default semantics (1 + Σ reads,
// in read order); DefaultTree spells it out.

// ExprOp enumerates ExprTree node kinds.
type ExprOp uint8

const (
	// ExprConst is a numeric literal (Val).
	ExprConst ExprOp = iota
	// ExprIndex is a loop index used as a value (Arg = 0-based level).
	ExprIndex
	// ExprRead is an array-read leaf (Arg = slot into Statement.Reads).
	ExprRead
	// ExprAdd/Sub/Mul/Div are the binary operators over L and R.
	ExprAdd
	ExprSub
	ExprMul
	ExprDiv
	// ExprNeg is unary negation of L.
	ExprNeg
)

// ExprTree is one node of the structured RHS.
type ExprTree struct {
	Op   ExprOp
	Val  float64 // ExprConst
	Arg  int     // ExprIndex: loop level; ExprRead: read slot
	L, R *ExprTree
}

// Eval evaluates the tree at iteration iter with the read values in
// reads — the reference semantics every lowering must match exactly.
func (e *ExprTree) Eval(iter []int64, reads []float64) float64 {
	return e.eval(&evalEnv{iter, reads})
}

// evalEnv is the evaluation point, passed by pointer so the recursion
// carries two words instead of two slices.
type evalEnv struct {
	iter  []int64
	reads []float64
}

// eval is small enough to inline, so the common leaves cost no call
// and only the other nodes recurse (through evalNode).
func (e *ExprTree) eval(env *evalEnv) float64 {
	switch e.Op {
	case ExprRead:
		return env.reads[e.Arg]
	case ExprConst:
		return e.Val
	}
	return e.evalNode(env)
}

func (e *ExprTree) evalNode(env *evalEnv) float64 {
	switch e.Op {
	case ExprIndex:
		return float64(env.iter[e.Arg])
	case ExprNeg:
		return -e.L.eval(env)
	}
	l, r := e.L.eval(env), e.R.eval(env)
	switch e.Op {
	case ExprAdd:
		return l + r
	case ExprSub:
		return l - r
	case ExprMul:
		return l * r
	case ExprDiv:
		return l / r
	}
	panic("loop: unknown ExprTree op")
}

// exprSym spells the binary operators, indexed by ExprOp.
var exprSym = [...]string{ExprAdd: "+", ExprSub: "-", ExprMul: "*", ExprDiv: "/"}

// Render spells the tree as a fully parenthesised infix expression,
// with reads[slot] for an array-read leaf and index[level] for a
// loop-index leaf. The spelling is part of lang.Canonical — the plan
// cache key — so it must not change: literals print with %v, negation
// as (-x), and every binary node carries its own parentheses.
func (e *ExprTree) Render(reads, index []string) string {
	switch e.Op {
	case ExprConst:
		return fmt.Sprintf("%v", e.Val)
	case ExprIndex:
		return index[e.Arg]
	case ExprRead:
		return reads[e.Arg]
	case ExprNeg:
		return "(-" + e.L.Render(reads, index) + ")"
	}
	return "(" + e.L.Render(reads, index) + " " + exprSym[e.Op] + " " + e.R.Render(reads, index) + ")"
}

// UsesIndex reports whether any node reads a loop index.
func (e *ExprTree) UsesIndex() bool {
	if e == nil {
		return false
	}
	if e.Op == ExprIndex {
		return true
	}
	return e.L.UsesIndex() || e.R.UsesIndex()
}

// DefaultTree returns the tree of the default statement semantics,
// 1 + Σ reads, matching Statement.EvalExpr's accumulation order
// (((1 + r0) + r1) + … ).
func DefaultTree(numReads int) *ExprTree {
	t := &ExprTree{Op: ExprConst, Val: 1}
	for i := 0; i < numReads; i++ {
		t = &ExprTree{Op: ExprAdd, L: t, R: &ExprTree{Op: ExprRead, Arg: i}}
	}
	return t
}
