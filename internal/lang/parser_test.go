package lang

import (
	"slices"
	"strings"
	"testing"

	"commfree/internal/loop"
)

// srcL1 and srcL2 are defined in corpus.go alongside the shared fuzz
// seed corpus.

func TestParseL1MatchesPaperIR(t *testing.T) {
	got := MustParse(srcL1)
	want := loop.L1()
	if got.Depth() != 2 {
		t.Fatalf("depth = %d", got.Depth())
	}
	lo, hi, ok := got.ConstBounds()
	if !ok || lo[0] != 1 || hi[0] != 4 || lo[1] != 1 || hi[1] != 4 {
		t.Fatalf("bounds = %v..%v", lo, hi)
	}
	if len(got.Body) != 2 {
		t.Fatalf("statements = %d", len(got.Body))
	}
	// Reference matrices must match the hand-built IR.
	for _, array := range []string{"A", "B", "C"} {
		gh, wh := got.ReferenceMatrix(array), want.ReferenceMatrix(array)
		for i := range wh {
			for j := range wh[i] {
				if gh[i][j] != wh[i][j] {
					t.Errorf("H_%s[%d][%d] = %d, want %d", array, i, j, gh[i][j], wh[i][j])
				}
			}
		}
	}
	// Offsets of the A read in S2.
	aRead := got.Body[1].Reads[0]
	if aRead.Array != "A" || aRead.Offset[0] != -2 || aRead.Offset[1] != -1 {
		t.Errorf("S2 A read = %v", aRead)
	}
	// Labels survive.
	if got.Body[0].Label != "S1" || got.Body[1].Label != "S2" {
		t.Errorf("labels = %q, %q", got.Body[0].Label, got.Body[1].Label)
	}
}

func TestParseL2BothAssignOps(t *testing.T) {
	got := MustParse(srcL2)
	want := loop.L2()
	gh, wh := got.ReferenceMatrix("A"), want.ReferenceMatrix("A")
	for i := range wh {
		for j := range wh[i] {
			if gh[i][j] != wh[i][j] {
				t.Errorf("H_A[%d][%d] = %d, want %d", i, j, gh[i][j], wh[i][j])
			}
		}
	}
	// S1 write offset (0,0); S2 write offset (-1,-1).
	if got.Body[0].Write.Offset[0] != 0 || got.Body[1].Write.Offset[0] != -1 {
		t.Errorf("write offsets wrong: %v, %v", got.Body[0].Write.Offset, got.Body[1].Write.Offset)
	}
}

func TestParseSemanticsExecutable(t *testing.T) {
	n := MustParse(srcL1)
	// S1: A[2i,j] = C[i,j]*7 — with C value 3 the result is 21.
	got := n.Body[0].EvalExpr([]int64{1, 1}, []float64{3})
	if got != 21 {
		t.Errorf("S1 expr = %v, want 21", got)
	}
	// S2: B = A + C.
	got = n.Body[1].EvalExpr([]int64{1, 1}, []float64{5, 7})
	if got != 12 {
		t.Errorf("S2 expr = %v, want 12", got)
	}
}

func TestParseIndexVarInRHS(t *testing.T) {
	n := MustParse(`
for i = 1 to 3
  A[i] = i * 2
end
`)
	if got := n.Body[0].EvalExpr([]int64{5}, nil); got != 10 {
		t.Errorf("expr = %v, want 10", got)
	}
}

func TestParseTriangularBounds(t *testing.T) {
	n := MustParse(`
for i = 1 to 8
  for j = i to 2i+1
    A[i,j] = A[i-1,j-1] + 1
  end
end
`)
	if n.Levels[1].Lower.Coeffs[0] != 1 {
		t.Errorf("lower bound = %v", n.Levels[1].Lower)
	}
	if n.Levels[1].Upper.Coeffs[0] != 2 || n.Levels[1].Upper.Const != 1 {
		t.Errorf("upper bound = %v", n.Levels[1].Upper)
	}
}

func TestParseImplicitMultiplication(t *testing.T) {
	n := MustParse(`
for i = 1 to 4
  for j = 1 to 4
    A[3i-2j+1, j] = 0
  end
end
`)
	w := n.Body[0].Write
	if w.H[0][0] != 3 || w.H[0][1] != -2 || w.Offset[0] != 1 {
		t.Errorf("subscript = H %v offset %v", w.H, w.Offset)
	}
}

func TestParseParenthesizedSubscripts(t *testing.T) {
	n := MustParse(`
for i = 1 to 4
  A[2*(i-1)] = 1
end
`)
	w := n.Body[0].Write
	if w.H[0][0] != 2 || w.Offset[0] != -2 {
		t.Errorf("H = %v, offset = %v", w.H, w.Offset)
	}
}

func TestParseComments(t *testing.T) {
	n := MustParse(`
# L1 from the paper
for i = 1 to 4   // outer
  A[i] = 1       # write
end
`)
	if n.Depth() != 1 || len(n.Body) != 1 {
		t.Errorf("depth=%d body=%d", n.Depth(), len(n.Body))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", "expected 'for'"},
		{"no body end", "for i = 1 to 4\n A[i] = 1", "expected 'end'"},
		{"nonlinear subscript", "for i = 1 to 4\n A[i*i] = 1\nend", "nonlinear"},
		{"trailing tokens", "for i = 1 to 4\n A[i] = 1\nend end", "trailing"},
		{"nonuniform", "for i = 1 to 4\n A[i] = A[2i]\nend", "uniformly"},
		{"dup index", "for i = 1 to 4\nfor i = 1 to 4\n A[i] = 1\nend\nend", "duplicate"},
		{"bad char", "for i = 1 to 4\n A[i] = @\nend", "unexpected character"},
		{"array in bound", "for i = A[1] to 4\n A[i] = 1\nend", "not allowed"},
		{"missing bracket", "for i = 1 to 4\n A i] = 1\nend", "expected '['"},
		{"inner bound ref", "for i = 1 to j\nfor j = 1 to 4\n A[i,j] = 1\nend\nend", "inner"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err.Error(), c.wantSub)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("for i = 1 to 4\n A[i*i] = 1\nend")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	// Nest.String output must re-parse to the same structure (modulo the
	// generic f(...) body, so only headers are compared).
	n := MustParse(srcL1)
	iters1 := n.Iterations()
	if len(iters1) != 16 {
		t.Fatalf("iterations = %d", len(iters1))
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexAll("for i := 1 to max(2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{tokFor, tokIdent, tokAssign, tokNumber, tokTo, tokMax, tokLParen, tokNumber, tokComma, tokNumber, tokRParen, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestParsedL5MatchesHandIR(t *testing.T) {
	src := `
for i = 1 to 4
  for j = 1 to 4
    for k = 1 to 4
      C[i,j] = C[i,j] + A[i,k] * B[k,j]
    end
  end
end
`
	got := MustParse(src)
	want := loop.L5(4)
	for _, arr := range []string{"A", "B", "C"} {
		gh, wh := got.ReferenceMatrix(arr), want.ReferenceMatrix(arr)
		for i := range wh {
			for j := range wh[i] {
				if gh[i][j] != wh[i][j] {
					t.Errorf("H_%s mismatch at (%d,%d)", arr, i, j)
				}
			}
		}
	}
	// Semantics: C = C + A*B.
	if got.Body[0].EvalExpr(nil, []float64{10, 2, 3}) != 16 {
		t.Error("L5 semantics wrong")
	}
}

// TestParseKeepsLargeIntegersExact: an integer literal past 2⁵³ is read
// exactly in bounds and subscripts — float64 would round 2⁶² + 2 to 2⁶²
// — so a program's canonical text reads back as the same nest.
func TestParseKeepsLargeIntegersExact(t *testing.T) {
	src := "for i = 4611686018427387906 to 4611686018427387909\n  for j = 1 to 3\n    A[i - 9007199254740993, j] = A[i - 9007199254740996, j - 1] + 1\n  end\nend\n"
	n := MustParse(src)
	lo, hi, ok := n.ConstBounds()
	if !ok || lo[0] != 4611686018427387906 || hi[0] != 4611686018427387909 {
		t.Fatalf("bounds = %v..%v, want i from 4611686018427387906 to 4611686018427387909", lo, hi)
	}
	if w, r := n.Body[0].Write.Offset[0], n.Body[0].Reads[0].Offset[0]; w != -9007199254740993 || r != -9007199254740996 {
		t.Fatalf("offsets = %d, %d, want -9007199254740993, -9007199254740996", w, r)
	}
	back := MustParse(Canonical(n))
	if blo, bhi, _ := back.ConstBounds(); !slices.Equal(blo, lo) || !slices.Equal(bhi, hi) ||
		back.Body[0].Write.Offset[0] != -9007199254740993 || back.Body[0].Reads[0].Offset[0] != -9007199254740996 {
		t.Errorf("canonical text reads back as another nest:\n%s", Canonical(back))
	}
}
