package kernel

import (
	"math"
	"testing"

	"commfree/internal/loop"
)

func lit(v float64) *loop.ExprTree { return &loop.ExprTree{Op: loop.ExprConst, Val: v} }
func idx(k int) *loop.ExprTree     { return &loop.ExprTree{Op: loop.ExprIndex, Arg: k} }
func rd(slot int) *loop.ExprTree   { return &loop.ExprTree{Op: loop.ExprRead, Arg: slot} }
func neg(x *loop.ExprTree) *loop.ExprTree {
	return &loop.ExprTree{Op: loop.ExprNeg, L: x}
}
func bin(op loop.ExprOp, l, r *loop.ExprTree) *loop.ExprTree {
	return &loop.ExprTree{Op: op, L: l, R: r}
}

// TestCompileTreeMatchesEval: the bytecode is ExprTree.Eval bit for
// bit over every ExprOp — including division by zero and 0/0 — and
// reports the stack depth and index use the executors size scratch by.
func TestCompileTreeMatchesEval(t *testing.T) {
	cases := []struct {
		name      string
		tree      *loop.ExprTree
		stack     int
		usesIndex bool
	}{
		{"const", lit(2.5), 1, false},
		{"index", idx(1), 1, true},
		{"read", rd(2), 1, false},
		{"add", bin(loop.ExprAdd, rd(0), rd(1)), 2, false},
		{"sub", bin(loop.ExprSub, rd(0), lit(0.1)), 2, false},
		{"mul", bin(loop.ExprMul, rd(1), idx(0)), 2, true},
		{"div", bin(loop.ExprDiv, rd(0), rd(1)), 2, false},
		{"div by zero", bin(loop.ExprDiv, rd(0), bin(loop.ExprSub, rd(1), rd(1))), 3, false},
		{"zero over zero", bin(loop.ExprDiv, bin(loop.ExprSub, rd(0), rd(0)), bin(loop.ExprSub, rd(1), rd(1))), 3, false},
		{"neg", neg(rd(0)), 1, false},
		{"neg of sum", neg(bin(loop.ExprAdd, rd(0), idx(1))), 2, true},
		{"left-deep", bin(loop.ExprAdd, bin(loop.ExprAdd, bin(loop.ExprAdd, rd(0), rd(1)), rd(2)), lit(3)), 2, false},
		{"right-deep", bin(loop.ExprAdd, rd(0), bin(loop.ExprMul, rd(1), bin(loop.ExprSub, rd(2), lit(3)))), 4, false},
		{"balanced", bin(loop.ExprMul, bin(loop.ExprAdd, rd(0), rd(1)), bin(loop.ExprDiv, rd(2), idx(0))), 3, true},
		{"default", loop.DefaultTree(3), 2, false},
	}
	points := []struct {
		iter  []int64
		reads []float64
	}{
		{[]int64{1, 2}, []float64{3, 4, 5}},
		{[]int64{-7, 0}, []float64{0.1, 0.2, 0.3}},
		{[]int64{0, 9}, []float64{-1e308, 1e308, 1e-320}},
		{[]int64{5, 5}, []float64{0, 0, math.Inf(1)}},
	}
	for _, c := range cases {
		code, err := CompileTree(c.tree)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if code.StackNeed != c.stack || code.UsesIndex != c.usesIndex {
			t.Errorf("%s: StackNeed=%d UsesIndex=%v, want %d %v", c.name, code.StackNeed, code.UsesIndex, c.stack, c.usesIndex)
		}
		stack := make([]float64, code.StackNeed)
		for _, pt := range points {
			want := c.tree.Eval(pt.iter, pt.reads)
			got := code.Eval(pt.iter, pt.reads, stack)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s at %v %v: bytecode %v (%#x), tree %v (%#x)", c.name, pt.iter, pt.reads,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestCompileTreeRejectsMalformed(t *testing.T) {
	for name, tree := range map[string]*loop.ExprTree{
		"nil tree":    nil,
		"nil operand": {Op: loop.ExprAdd, L: rd(0)},
		"nil negand":  {Op: loop.ExprNeg},
		"unknown op":  {Op: loop.ExprNeg + 1},
	} {
		if _, err := CompileTree(tree); err == nil {
			t.Errorf("%s: compiled", name)
		}
	}
}

// TestRecognize: the fast shapes are exactly DefaultTree(n), the
// ascending left-associated add chain over all reads, and r[a] +
// r[b]*r[c]; every near miss takes the bytecode path.
func TestRecognize(t *testing.T) {
	add := func(l, r *loop.ExprTree) *loop.ExprTree { return bin(loop.ExprAdd, l, r) }
	mul := func(l, r *loop.ExprTree) *loop.ExprTree { return bin(loop.ExprMul, l, r) }
	cases := []struct {
		name     string
		tree     *loop.ExprTree
		numReads int
		want     Fast
		args     [3]int32
	}{
		{"nil is the default", nil, 2, FastSum1, [3]int32{}},
		{"DefaultTree(0)", loop.DefaultTree(0), 0, FastSum1, [3]int32{}},
		{"DefaultTree(1)", loop.DefaultTree(1), 1, FastSum1, [3]int32{}},
		{"DefaultTree(3)", loop.DefaultTree(3), 3, FastSum1, [3]int32{}},
		{"default over too few reads", loop.DefaultTree(1), 2, FastBytecode, [3]int32{}},
		{"default with another constant", add(lit(2), rd(0)), 1, FastBytecode, [3]int32{}},
		{"default out of order", add(add(lit(1), rd(1)), rd(0)), 2, FastBytecode, [3]int32{}},
		{"default right-associated", add(lit(1), add(rd(0), rd(1))), 2, FastBytecode, [3]int32{}},

		{"bare read", rd(0), 1, FastAddChain, [3]int32{}},
		{"add chain of 2", add(rd(0), rd(1)), 2, FastAddChain, [3]int32{}},
		{"add chain of 4", add(add(add(rd(0), rd(1)), rd(2)), rd(3)), 4, FastAddChain, [3]int32{}},
		{"chain out of order", add(rd(1), rd(0)), 2, FastBytecode, [3]int32{}},
		{"chain right-associated", add(rd(0), add(rd(1), rd(2))), 3, FastBytecode, [3]int32{}},
		{"chain skipping a read", add(rd(0), rd(1)), 3, FastBytecode, [3]int32{}},
		{"chain with a subtraction", bin(loop.ExprSub, rd(0), rd(1)), 2, FastBytecode, [3]int32{}},

		{"mul-add", add(rd(0), mul(rd(1), rd(2))), 3, FastMulAdd, [3]int32{0, 1, 2}},
		{"mul-add permuted slots", add(rd(2), mul(rd(0), rd(1))), 3, FastMulAdd, [3]int32{2, 0, 1}},
		{"mul-add repeated slot", add(rd(0), mul(rd(1), rd(1))), 2, FastMulAdd, [3]int32{0, 1, 1}},
		{"product on the left", add(mul(rd(1), rd(2)), rd(0)), 3, FastBytecode, [3]int32{}},
		{"product with a constant", add(rd(0), mul(rd(1), lit(2))), 2, FastBytecode, [3]int32{}},
		{"mul-sub", bin(loop.ExprSub, rd(0), mul(rd(1), rd(2))), 3, FastBytecode, [3]int32{}},
		{"accumulator is an index", add(idx(0), mul(rd(0), rd(1))), 2, FastBytecode, [3]int32{}},
	}
	for _, c := range cases {
		got, args := Recognize(c.tree, c.numReads)
		if got != c.want || args != c.args {
			t.Errorf("%s: Recognize = %d %v, want %d %v", c.name, got, args, c.want, c.args)
		}
	}
}

// fusable is a multiply-add whose fused and unfused results differ:
// b·c = 1 + 2⁻²⁹ + 2⁻⁶⁰ rounds to 1 + 2⁻²⁹, so a + float64(b·c) is 0
// while fma(b, c, a) keeps the 2⁻⁶⁰.
var fusable = struct{ a, b, c float64 }{a: -(1 + 0x1p-29), b: 1 + 0x1p-30, c: 1 + 0x1p-30}

// TestMulAddRoundsTheProduct pins the one rounding rule: the FastMulAdd
// bodies must round the product before the add, as ExprTree.Eval does,
// on targets where Go would otherwise fuse a + b*c into an FMA.
func TestMulAddRoundsTheProduct(t *testing.T) {
	a, b, c := fusable.a, fusable.b, fusable.c
	tree := bin(loop.ExprAdd, rd(0), bin(loop.ExprMul, rd(1), rd(2)))
	want := tree.Eval(nil, []float64{a, b, c})
	if want != 0 || math.FMA(b, c, a) == want {
		t.Fatalf("case does not discriminate: unfused %v, fused %v", want, math.FMA(b, c, a))
	}
	fast, args := Recognize(tree, 3)
	if fast != FastMulAdd {
		t.Fatalf("Recognize = %d, want FastMulAdd", fast)
	}
	mulAdd := Stmt{WriteArr: 0, ReadArrs: []int32{1, 2, 3}, Fast: fast, MulAdd: args}

	seg := &Plan{
		Depth: 1, MaxReads: 3, Stmts: []Stmt{mulAdd},
		Segs:      []Seg{{N: 1, WStep: 1, IBase: -1, DBase: -1}},
		BlockSegs: [][2]int32{{0, 1}},
		ROff:      []int64{0, 0, 0}, RStep: []int64{1, 1, 1},
	}
	// The row executor only runs multi-statement bodies; a second
	// statement copies the result so the plan is well-formed.
	row := &Plan{
		Depth: 1, MaxReads: 3, Multi: true, RowWidth: 6,
		Stmts:     []Stmt{mulAdd, {WriteArr: 4, ReadArrs: []int32{0}, Fast: FastAddChain}},
		Rows:      []Row{{N: 1, MBase: -1, IBase: -1, DBase: -1}},
		BlockRows: [][2]int32{{0, 1}},
		RowOff:    make([]int64, 6), RowStep: make([]int64, 6),
	}
	for name, pl := range map[string]*Plan{"seg": seg, "row": row} {
		bufs := [][]float64{{99}, {a}, {b}, {c}, {99}}
		pl.ExecBlock(0, 1, bufs, pl.NewScratch())
		if got := bufs[0][0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s plan: a + b*c = %v, want the unfused %v", name, got, want)
		}
	}
}

// untouched marks cells no iteration of the executed prefix may write.
const untouched = -12345

// TestExecBlockPrefixSegs: the chaos cut contract for single-statement
// plans. A block of 6 raw iterations whose iteration 2 is redundant
// (the segment split keeps raw positions) runs exactly the first
// `count` raw iterations, for every fast path.
func TestExecBlockPrefixSegs(t *testing.T) {
	byteTree := bin(loop.ExprMul, rd(0), idx(0)) // W[t] = R[t] · i, i = 10 + 3t
	code, err := CompileTree(byteTree)
	if err != nil {
		t.Fatal(err)
	}
	stmts := map[string]Stmt{
		"sum1":     {WriteArr: 0, ReadArrs: []int32{1}, Fast: FastSum1},
		"addchain": {WriteArr: 0, ReadArrs: []int32{1, 2}, Fast: FastAddChain},
		"muladd":   {WriteArr: 0, ReadArrs: []int32{1, 2, 1}, Fast: FastMulAdd, MulAdd: [3]int32{0, 1, 2}},
		"bytecode": {WriteArr: 0, ReadArrs: []int32{1}, Fast: FastBytecode, Code: code, UsesIndex: true},
	}
	r1 := []float64{2, 3, 5, 7, 11, 13}
	r2 := []float64{0.5, 0.25, 0.125, 4, 8, 16}
	eval := map[string]func(t int) float64{
		"sum1":     func(t int) float64 { return 1 + r1[t] },
		"addchain": func(t int) float64 { return r1[t] + r2[t] },
		"muladd":   func(t int) float64 { return r1[t] + float64(r2[t]*r1[t]) },
		"bytecode": func(t int) float64 { return r1[t] * float64(10+3*t) },
	}
	for name, st := range stmts {
		k := len(st.ReadArrs)
		pl := &Plan{
			Depth: 1, MaxReads: k, MaxStack: code.StackNeed, Stmts: []Stmt{st},
			Segs: []Seg{
				{T0: 0, N: 2, WOff: 0, WStep: 1, RBase: 0, IBase: 0, DBase: 0},
				{T0: 3, N: 3, WOff: 3, WStep: 1, RBase: int32(k), IBase: 1, DBase: 0},
			},
			BlockSegs: [][2]int32{{0, 2}},
			It0:       []int64{10, 19}, Delta: []int64{3},
		}
		for _, start := range []int64{0, 3} {
			for j := 0; j < k; j++ {
				pl.ROff = append(pl.ROff, start)
				pl.RStep = append(pl.RStep, 1)
			}
		}
		scr := pl.NewScratch()
		for count := int64(0); count <= 6; count++ {
			w := []float64{untouched, untouched, untouched, untouched, untouched, untouched}
			pl.ExecBlock(0, count, [][]float64{w, r1, r2}, scr)
			for t0 := 0; t0 < 6; t0++ {
				want := float64(untouched)
				if int64(t0) < count && t0 != 2 {
					want = eval[name](t0)
				}
				if w[t0] != want {
					t.Errorf("%s count=%d: W[%d] = %v, want %v", name, count, t0, w[t0], want)
				}
			}
		}
	}
}

// TestExecBlockPrefixRows: the same contract for multi-statement plans.
// Two rows (raw iterations 0–4 and 5–7); S1: X[t] = 1 + R[t], then
// S2: Y[t] = X[t] + R[t]·i reads S1's write of the same iteration, and
// is redundant (masked) at raw iterations 1 and 6.
func TestExecBlockPrefixRows(t *testing.T) {
	code, err := CompileTree(bin(loop.ExprAdd, rd(0), bin(loop.ExprMul, rd(1), idx(0))))
	if err != nil {
		t.Fatal(err)
	}
	const x, y, r = 0, 1, 2
	pl := &Plan{
		Depth: 1, MaxReads: 2, MaxStack: code.StackNeed, Multi: true, RowWidth: 5,
		Stmts: []Stmt{
			{WriteArr: x, ReadArrs: []int32{r}, Fast: FastSum1},
			{WriteArr: y, ReadArrs: []int32{x, r}, Fast: FastBytecode, Code: code, UsesIndex: true},
		},
		Rows: []Row{
			{T0: 0, N: 5, OBase: 0, MBase: 0, IBase: 0, DBase: 0},
			{T0: 5, N: 3, OBase: 5, MBase: 2, IBase: 1, DBase: 0},
		},
		BlockRows: [][2]int32{{0, 2}},
		RowOff:    []int64{0, 0, 0, 0, 0, 5, 5, 5, 5, 5},
		RowStep:   []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		Masks:     []uint64{0, 1 << 1, 0, 1 << 1}, // per row: [S1, S2]
		It0:       []int64{100, 105}, Delta: []int64{1},
	}
	rv := []float64{2, 3, 5, 7, 11, 13, 17, 19}
	scr := pl.NewScratch()
	for count := int64(0); count <= 8; count++ {
		xs, ys := make([]float64, 8), make([]float64, 8)
		for i := range xs {
			xs[i], ys[i] = untouched, untouched
		}
		pl.ExecBlock(0, count, [][]float64{xs, ys, rv}, scr)
		for t0 := 0; t0 < 8; t0++ {
			wantX, wantY := float64(untouched), float64(untouched)
			if int64(t0) < count {
				wantX = 1 + rv[t0]
				if t0 != 1 && t0 != 6 {
					wantY = wantX + rv[t0]*float64(100+t0)
				}
			}
			if xs[t0] != wantX || ys[t0] != wantY {
				t.Errorf("count=%d t=%d: X=%v Y=%v, want %v %v", count, t0, xs[t0], ys[t0], wantX, wantY)
			}
		}
	}
}
