package lang

import "fmt"

// Expr is a node of the parsed expression AST. Expressions are built
// from numeric literals, loop-index variables, array references, the
// four arithmetic operators, and unary negation. The AST lives only
// inside the parser: subscripts and bounds lower to loop.Affine,
// right-hand sides to loop.ExprTree (toTree), which carries the
// executable and printable semantics from there on.
type Expr interface {
	String() string
}

// NumLit is a numeric literal.
type NumLit struct {
	Value float64
	// exact is an integer literal's value (isInt set), which Value rounds
	// past 2⁵³: a loop bound or subscript must not change when its
	// canonical text is read back.
	exact int64
	isInt bool
}

func (n *NumLit) String() string {
	if i, ok := n.integer(); ok {
		return fmt.Sprintf("%d", i)
	}
	return fmt.Sprintf("%g", n.Value)
}

// integer returns the literal's value when it is an integer.
func (n *NumLit) integer() (int64, bool) {
	if n.isInt {
		return n.exact, true
	}
	return int64(n.Value), n.Value == float64(int64(n.Value))
}

// VarRef is a use of a loop index variable as a scalar value.
type VarRef struct {
	Name  string
	Level int // 0-based loop level
}

func (v *VarRef) String() string { return v.Name }

// ArrRef is an array read; Slot indexes into the statement's Reads list.
type ArrRef struct {
	Text string // source rendering, e.g. "A[2i-2,j-1]"
	Slot int
}

func (a *ArrRef) String() string { return a.Text }

// BinOp is a binary arithmetic operation.
type BinOp struct {
	Op   byte // one of + - * /
	L, R Expr
}

func (b *BinOp) String() string {
	return "(" + b.L.String() + " " + string(b.Op) + " " + b.R.String() + ")"
}

// SymRef is a use of a symbolic constant (an identifier that names no
// loop index) inside an array subscript. It only appears in affine-mode
// parses (ParseAffine); subscript expressions containing it are lowered
// to SymTerm lists, never evaluated.
type SymRef struct{ Name string }

func (s *SymRef) String() string { return s.Name }

// Neg is unary negation.
type Neg struct{ X Expr }

func (n *Neg) String() string { return "-" + n.X.String() }
