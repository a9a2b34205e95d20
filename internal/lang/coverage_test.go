package lang

import (
	"strings"
	"testing"

	"commfree/internal/loop"
)

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokKind{
		tokEOF, tokIdent, tokNumber, tokFor, tokTo, tokEnd, tokAssign,
		tokPlus, tokMinus, tokStar, tokSlash, tokLParen, tokRParen,
		tokLBracket, tokRBracket, tokComma, tokColon, tokMax, tokMin, tokStep,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown token" {
			t.Errorf("kind %d has no name", int(k))
		}
		if seen[s] {
			t.Errorf("duplicate name %q", s)
		}
		seen[s] = true
	}
	if tokKind(99).String() != "unknown token" {
		t.Error("out-of-range kind")
	}
}

func TestParserMiscErrors(t *testing.T) {
	cases := []struct{ src, sub string }{
		{"for 1 = 1 to 4\n A[i]=1\nend", "expected identifier"},
		{"for i 1 to 4\n A[i]=1\nend", "expected '='"},
		{"for i = 1 4\n A[i]=1\nend", "expected 'to'"},
		{"for i = 1 to 4\n A[i = 1\nend", "expected ']'"},
		{"for i = 1 to 4\n A[i] 1\nend", "expected '='"},
		{"for i = 1 to 4\n A[i] = (1\nend", "expected ')'"},
		{"for i = 1 to 4\n A[i] = *\nend", "unexpected"},
		{"for i = 1 to 4\n A[i] = 1/\nend", "unexpected"},
		{"for i = 1 to 4\n A[1/2] = 1\nend", "division"},
		{"for i = 1 to 4\n A[2.5] = 1\nend", "unexpected character"},
		{"for i = 1 to 4\n A[B[i]] = 1\nend", "array reference"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("no error for %q", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.sub) {
			t.Errorf("error for %q = %q, want substring %q", c.src, err.Error(), c.sub)
		}
	}
}

func TestExprStringForms(t *testing.T) {
	n := MustParse("for i = 1 to 4\n A[i] = -(i + 2) * 3 / (1 + 1)\nend")
	// Evaluate at i = 2: -(4)·3/2 = -6.
	if got := n.Body[0].EvalExpr([]int64{2}, nil); got != -6 {
		t.Errorf("expr = %v, want -6", got)
	}
}

func TestRenderRHSForms(t *testing.T) {
	n := MustParse("for i = 1 to 4\n A[i] = -B[i] + i * 2\nend")
	got := n.Body[0].RenderRHS([]string{"v0"}, []string{"float64(i)"})
	if want := "((-v0) + (float64(i) * 2))"; got != want {
		t.Errorf("RenderRHS = %q, want %q", got, want)
	}
}

func TestUnaryPlus(t *testing.T) {
	n := MustParse("for i = 1 to 4\n A[+i] = +1\nend")
	if n.Body[0].Write.H[0][0] != 1 || n.Body[0].Write.Offset[0] != 0 {
		t.Error("unary plus mishandled in subscript")
	}
}

func TestFormatAffineFallbackNames(t *testing.T) {
	// formatAffine with fewer names than coefficients falls back to iN.
	got := formatAffine(loop.Affine{Coeffs: []int64{1, 2}, Const: 3}, []string{"x"})
	if !strings.Contains(got, "x") || !strings.Contains(got, "i2") {
		t.Errorf("formatAffine = %q", got)
	}
}
