// Package kernel holds the per-plan specialization target of the exec
// package: a loop nest, partition, and assignment lowered into a flat
// register-style form that executes with no per-iteration dispatch.
//
// The lowering (exec.Program.Specialize) turns every partition block
// into straight-line segments — runs of iterations whose vector delta
// is constant — so each statement's write and read offsets advance by a
// precomputed scalar stride per iteration instead of re-evaluating
// H·ī + c̄. Redundant computations (paper Section III.C) are baked into
// the segment bounds at lowering time for single-statement nests, and
// into per-row bitmasks for multi-statement nests, so the hot loop
// never tests redundancy. Statement right-hand sides lower through
// loop.ExprTree into either a stack bytecode (Code) or one of the
// recognized fast shapes (Fast) that skip dispatch entirely.
//
// Everything in a Plan is read-only after lowering and safe for
// concurrent executions; all mutable per-run state lives in Scratch and
// the caller's buffers.
package kernel

import (
	"fmt"

	"commfree/internal/loop"
)

// Bytecode ops. Leaves push one value; binary ops pop two and push one.
const (
	opConst uint8 = iota // push Consts[arg]
	opIndex              // push float64(iter[arg])
	opRead               // push vals[arg]
	opAdd
	opSub
	opMul
	opDiv
	opNeg
)

// Code is a statement RHS compiled to a postfix stack program. The ops
// are emitted in the exact post-order of the source loop.ExprTree
// (left, right, operator), so evaluation performs the same float64
// operations in the same order as ExprTree.Eval — bit-identical
// results by construction.
type Code struct {
	Ops       []uint8
	Args      []int32   // per-op operand (const index, loop level, read slot)
	Consts    []float64 // literal pool
	StackNeed int       // maximum evaluation stack depth
	UsesIndex bool      // any opIndex present
}

// CompileTree lowers an expression tree to bytecode. A nil tree is an
// error: callers special-case the default (1 + Σ reads) semantics.
func CompileTree(t *loop.ExprTree) (*Code, error) {
	if t == nil {
		return nil, fmt.Errorf("kernel: nil expression tree")
	}
	c := &Code{}
	depth := 0
	var emit func(e *loop.ExprTree) error
	push := func(op uint8, arg int32) {
		c.Ops = append(c.Ops, op)
		c.Args = append(c.Args, arg)
	}
	emit = func(e *loop.ExprTree) error {
		if e == nil {
			return fmt.Errorf("kernel: malformed expression tree (nil operand)")
		}
		switch e.Op {
		case loop.ExprConst:
			c.Consts = append(c.Consts, e.Val)
			push(opConst, int32(len(c.Consts)-1))
		case loop.ExprIndex:
			c.UsesIndex = true
			push(opIndex, int32(e.Arg))
		case loop.ExprRead:
			push(opRead, int32(e.Arg))
		case loop.ExprAdd, loop.ExprSub, loop.ExprMul, loop.ExprDiv:
			if err := emit(e.L); err != nil {
				return err
			}
			if err := emit(e.R); err != nil {
				return err
			}
			op := opAdd
			switch e.Op {
			case loop.ExprSub:
				op = opSub
			case loop.ExprMul:
				op = opMul
			case loop.ExprDiv:
				op = opDiv
			}
			push(op, 0)
			depth--
			return nil
		case loop.ExprNeg:
			if err := emit(e.L); err != nil {
				return err
			}
			push(opNeg, 0)
			return nil
		default:
			return fmt.Errorf("kernel: unknown expression op %d", e.Op)
		}
		depth++
		if depth > c.StackNeed {
			c.StackNeed = depth
		}
		return nil
	}
	if err := emit(t); err != nil {
		return nil, err
	}
	if depth != 1 {
		return nil, fmt.Errorf("kernel: expression tree does not reduce to one value")
	}
	return c, nil
}

// Eval runs the program. iter may be nil when !UsesIndex; stack must
// hold at least StackNeed values.
func (c *Code) Eval(iter []int64, vals []float64, stack []float64) float64 {
	sp := 0
	for i, op := range c.Ops {
		switch op {
		case opConst:
			stack[sp] = c.Consts[c.Args[i]]
			sp++
		case opIndex:
			stack[sp] = float64(iter[c.Args[i]])
			sp++
		case opRead:
			stack[sp] = vals[c.Args[i]]
			sp++
		case opAdd:
			sp--
			stack[sp-1] = stack[sp-1] + stack[sp]
		case opSub:
			sp--
			stack[sp-1] = stack[sp-1] - stack[sp]
		case opMul:
			sp--
			stack[sp-1] = stack[sp-1] * stack[sp]
		case opDiv:
			sp--
			stack[sp-1] = stack[sp-1] / stack[sp]
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		}
	}
	return stack[0]
}

// Fast names the recognized statement shapes whose inner loops skip
// bytecode dispatch entirely. The fast bodies perform ExprTree.Eval's
// operations in its order and round every intermediate to float64 (an
// explicit conversion wherever Go could otherwise fuse a multiply-add),
// so they produce Eval's results bit for bit on every target.
type Fast uint8

const (
	// FastBytecode is the generic fallback: one Code.Eval per point.
	FastBytecode Fast = iota
	// FastSum1 is the default statement semantics, 1 + Σ reads in slot
	// order (also recognized when spelled out explicitly).
	FastSum1
	// FastAddChain is a left-associated sum of all reads in ascending
	// slot order — the stencil/accumulation shape.
	FastAddChain
	// FastMulAdd is r[a] + r[b]*r[c] — the matmul / conv2d inner shape.
	FastMulAdd
)

// Recognize classifies a statement RHS. A nil tree means the default
// semantics. args receives the read slots for FastMulAdd (a, b, c).
func Recognize(t *loop.ExprTree, numReads int) (Fast, [3]int32) {
	var args [3]int32
	if t == nil || isSum1(t, numReads) {
		return FastSum1, args
	}
	if numReads >= 1 && isAddChain(t, numReads) {
		return FastAddChain, args
	}
	if a, b, c, ok := isMulAdd(t); ok {
		return FastMulAdd, [3]int32{a, b, c}
	}
	return FastBytecode, args
}

// isSum1 matches ((1 + r0) + r1) + … with every read slot in ascending
// order — exactly DefaultTree(numReads).
func isSum1(t *loop.ExprTree, numReads int) bool {
	for slot := numReads - 1; slot >= 0; slot-- {
		if t == nil || t.Op != loop.ExprAdd || t.R == nil || t.R.Op != loop.ExprRead || t.R.Arg != slot {
			return false
		}
		t = t.L
	}
	return t != nil && t.Op == loop.ExprConst && t.Val == 1
}

// isAddChain matches ((r0 + r1) + r2) + … over all numReads slots in
// ascending order (a bare r0 when numReads == 1).
func isAddChain(t *loop.ExprTree, numReads int) bool {
	for slot := numReads - 1; slot >= 1; slot-- {
		if t == nil || t.Op != loop.ExprAdd || t.R == nil || t.R.Op != loop.ExprRead || t.R.Arg != slot {
			return false
		}
		t = t.L
	}
	return t != nil && t.Op == loop.ExprRead && t.Arg == 0
}

// isMulAdd matches r[a] + r[b]*r[c].
func isMulAdd(t *loop.ExprTree) (a, b, c int32, ok bool) {
	if t == nil || t.Op != loop.ExprAdd {
		return
	}
	l, r := t.L, t.R
	if l == nil || r == nil || l.Op != loop.ExprRead || r.Op != loop.ExprMul {
		return
	}
	if r.L == nil || r.R == nil || r.L.Op != loop.ExprRead || r.R.Op != loop.ExprRead {
		return
	}
	return int32(l.Arg), int32(r.L.Arg), int32(r.R.Arg), true
}
