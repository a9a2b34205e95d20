package loop

import (
	"strings"
	"testing"
)

func TestAffineEvalAndString(t *testing.T) {
	a := Affine{Coeffs: []int64{2, -1}, Const: 3}
	if got := a.Eval([]int64{5, 4}); got != 2*5-4+3 {
		t.Errorf("Eval = %d", got)
	}
	if got := a.String(); got != "2*i1 - i2 + 3" {
		t.Errorf("String = %q", got)
	}
	z := ConstAffine(2, 0)
	if !z.IsConst() || z.String() != "0" {
		t.Errorf("ConstAffine wrong: %q", z.String())
	}
	one := Affine{Coeffs: []int64{1, 0}, Const: 0}
	if got := one.String(); got != "i1" {
		t.Errorf("String = %q", got)
	}
}

func TestAffineDependsOnlyOn(t *testing.T) {
	a := Affine{Coeffs: []int64{1, 0, 0}, Const: 2}
	if !a.DependsOnlyOn(1) || !a.DependsOnlyOn(2) {
		t.Error("should depend only on first index")
	}
	if a.DependsOnlyOn(0) {
		t.Error("depends on i1 but DependsOnlyOn(0) true")
	}
}

func TestRefIndexAndString(t *testing.T) {
	r := Ref{Array: "A", H: [][]int64{{2, 0}, {0, 1}}, Offset: []int64{-2, -1}}
	got := r.Index([]int64{3, 4})
	if got[0] != 4 || got[1] != 3 {
		t.Errorf("Index = %v", got)
	}
	if s := r.String(); s != "A[2*i1 - 2,i2 - 1]" {
		t.Errorf("String = %q", s)
	}
	if r.Dim() != 2 {
		t.Errorf("Dim = %d", r.Dim())
	}
}

func TestSameFunction(t *testing.T) {
	a := Ref{Array: "A", H: [][]int64{{2, 0}, {0, 1}}, Offset: []int64{0, 0}}
	b := Ref{Array: "A", H: [][]int64{{2, 0}, {0, 1}}, Offset: []int64{-2, -1}}
	c := Ref{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}}
	d := Ref{Array: "B", H: [][]int64{{2, 0}, {0, 1}}, Offset: []int64{0, 0}}
	if !a.SameFunction(b) {
		t.Error("same H should match")
	}
	if a.SameFunction(c) {
		t.Error("different H should not match")
	}
	if a.SameFunction(d) {
		t.Error("different array should not match")
	}
}

func TestPaperLoopsValidate(t *testing.T) {
	for name, l := range map[string]*Nest{
		"L1": L1(), "L2": L2(), "L3": L3(), "L4": L4(), "L5": L5(4),
	} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestValidateRejectsNonUniform(t *testing.T) {
	l := L1()
	// Corrupt: second A reference gets a different H.
	l.Body[1].Reads[0].H = [][]int64{{1, 0}, {0, 1}}
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "uniformly") {
		t.Errorf("expected uniform-generation error, got %v", err)
	}
}

func TestValidateRejectsBadBounds(t *testing.T) {
	l := L1()
	// Level 1 bound referencing level 2 index violates normalization.
	l.Levels[0].Upper = Affine{Coeffs: []int64{0, 1}, Const: 0}
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "inner") {
		t.Errorf("expected bounds error, got %v", err)
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := (&Nest{}).Validate(); err == nil {
		t.Error("empty nest validated")
	}
	l := L1()
	l.Body = nil
	if err := l.Validate(); err == nil {
		t.Error("empty body validated")
	}
}

func TestArrays(t *testing.T) {
	got := L1().Arrays()
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("Arrays = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Arrays = %v, want %v", got, want)
		}
	}
}

func TestRefsOf(t *testing.T) {
	refs, isWrite, stmts := L1().RefsOf("A")
	if len(refs) != 2 {
		t.Fatalf("A refs = %d, want 2", len(refs))
	}
	if !isWrite[0] || isWrite[1] {
		t.Errorf("write flags = %v", isWrite)
	}
	if stmts[0] != 0 || stmts[1] != 1 {
		t.Errorf("stmt indices = %v", stmts)
	}
	refs, _, _ = L1().RefsOf("C")
	if len(refs) != 2 {
		t.Errorf("C refs = %d", len(refs))
	}
	refs, _, _ = L1().RefsOf("B")
	if len(refs) != 1 {
		t.Errorf("B refs = %d", len(refs))
	}
	if refs, _, _ := L1().RefsOf("Z"); len(refs) != 0 {
		t.Errorf("Z refs = %d", len(refs))
	}
}

func TestReferenceMatrix(t *testing.T) {
	h := L1().ReferenceMatrix("A")
	if h[0][0] != 2 || h[0][1] != 0 || h[1][0] != 0 || h[1][1] != 1 {
		t.Errorf("H_A = %v", h)
	}
	if L1().ReferenceMatrix("Z") != nil {
		t.Error("missing array should yield nil")
	}
}

func TestIterationsLexOrder(t *testing.T) {
	iters := L1().Iterations()
	if len(iters) != 16 {
		t.Fatalf("iterations = %d, want 16", len(iters))
	}
	if iters[0][0] != 1 || iters[0][1] != 1 {
		t.Errorf("first = %v", iters[0])
	}
	if iters[15][0] != 4 || iters[15][1] != 4 {
		t.Errorf("last = %v", iters[15])
	}
	for k := 1; k < len(iters); k++ {
		if !LexLess(iters[k-1], iters[k]) {
			t.Fatalf("not lexicographic at %d: %v then %v", k, iters[k-1], iters[k])
		}
	}
	if got := L1().NumIterations(); got != 16 {
		t.Errorf("NumIterations = %d", got)
	}
}

func TestIterationsTriangular(t *testing.T) {
	// for i = 1 to 3; for j = i to 3 — 6 iterations.
	l := &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 3)},
			{Name: "j", Lower: Affine{Coeffs: []int64{1, 0}}, Upper: ConstAffine(2, 3)},
		},
		Body: []*Statement{{
			Write: Ref{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
		}},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	iters := l.Iterations()
	if len(iters) != 6 {
		t.Fatalf("triangular iterations = %d, want 6", len(iters))
	}
	for _, it := range iters {
		if it[1] < it[0] {
			t.Errorf("iteration %v outside triangle", it)
		}
	}
	if l.NumIterations() != 6 {
		t.Errorf("NumIterations = %d", l.NumIterations())
	}
}

func TestConstBounds(t *testing.T) {
	lo, hi, ok := L1().ConstBounds()
	if !ok || lo[0] != 1 || hi[1] != 4 {
		t.Errorf("ConstBounds = %v %v %v", lo, hi, ok)
	}
	tri := &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(2, 1), Upper: ConstAffine(2, 3)},
			{Name: "j", Lower: Affine{Coeffs: []int64{1, 0}}, Upper: ConstAffine(2, 3)},
		},
		Body: []*Statement{{Write: Ref{Array: "A", H: [][]int64{{1, 0}}, Offset: []int64{0}}}},
	}
	if _, _, ok := tri.ConstBounds(); ok {
		t.Error("triangular bounds reported const")
	}
}

func TestLexLess(t *testing.T) {
	if !LexLess([]int64{1, 2}, []int64{1, 3}) {
		t.Error("(1,2) < (1,3) failed")
	}
	if !LexLess([]int64{1, 9}, []int64{2, 0}) {
		t.Error("(1,9) < (2,0) failed")
	}
	if LexLess([]int64{1, 2}, []int64{1, 2}) {
		t.Error("equal reported less")
	}
	if LexLess([]int64{2, 0}, []int64{1, 9}) {
		t.Error("(2,0) < (1,9)?")
	}
}

func TestStatementEvalExprDefault(t *testing.T) {
	s := &Statement{}
	if got := s.EvalExpr(nil, []float64{2, 3}); got != 6 {
		t.Errorf("default expr = %v, want 6", got)
	}
	s = &Statement{Tree: &ExprTree{Op: ExprMul, L: &ExprTree{Op: ExprRead, Arg: 0}, R: &ExprTree{Op: ExprConst, Val: 10}}}
	if got := s.EvalExpr(nil, []float64{2}); got != 20 {
		t.Errorf("custom expr = %v", got)
	}
}

// TestRenderRHS pins the one RHS spelling: full parenthesisation, %v
// literals, (-x), caller-spelled leaves, and the nil-Tree default.
func TestRenderRHS(t *testing.T) {
	read := func(slot int) *ExprTree { return &ExprTree{Op: ExprRead, Arg: slot} }
	lit := func(v float64) *ExprTree { return &ExprTree{Op: ExprConst, Val: v} }
	cases := []struct {
		tree *ExprTree
		want string
	}{
		{nil, "1 + a + b + c"},
		{DefaultTree(2), "((1 + a) + b)"},
		{L5(2).Body[0].Tree, "(a + (b * c))"},
		{&ExprTree{Op: ExprNeg, L: read(0)}, "(-a)"},
		{&ExprTree{Op: ExprSub, L: &ExprTree{Op: ExprIndex, Arg: 1}, R: lit(0.5)}, "(j - 0.5)"},
		{&ExprTree{Op: ExprDiv, L: lit(1e21), R: lit(-3)}, "(1e+21 / -3)"},
	}
	for _, c := range cases {
		s := &Statement{Tree: c.tree}
		if got := s.RenderRHS([]string{"a", "b", "c"}, []string{"i", "j"}); got != c.want {
			t.Errorf("RenderRHS = %q, want %q", got, c.want)
		}
	}
}

func TestNestString(t *testing.T) {
	s := L1().String()
	for _, want := range []string{"for i = 1 to 4", "for j = 1 to 4", "S1: A[2*i1,i2]", "end"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestL5Semantics(t *testing.T) {
	// L5's tree must compute C += A*B.
	l := L5(2)
	s := l.Body[0]
	got := s.EvalExpr(nil, []float64{10, 2, 3})
	if got != 16 {
		t.Errorf("L5 expr = %v, want 16", got)
	}
}
