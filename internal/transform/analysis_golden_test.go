package transform

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"commfree/internal/deps"
	"commfree/internal/intlin"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
)

// TestAnalysisGolden pins every exact-arithmetic object the compile path
// derives — the dependence pair relations and distances, Ψ, Q, T, T⁻¹'s
// integer rows and the Fourier–Motzkin bound terms — on the corpus,
// L1–L5 and 300 seeded generated nests under the five coset strategies,
// byte for byte against testdata/analysis.golden. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/transform -run AnalysisGolden, and
// only for a change that means to move these objects.
func TestAnalysisGolden(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	var b strings.Builder
	for i, nest := range nests {
		fmt.Fprintf(&b, "== nest %d\n%s\n", i, nest)
		pc, err := partition.NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("nest %d: %v", i, err)
		}
		writeAnalysis(&b, pc.Analysis)
		dup := map[string]bool{pc.Index.Arrays[0]: true}
		var seen []string // Ψ bases already transformed, by strategy
		for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
			partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Selective} {
			res, err := pc.Compute(strat, dup, 0)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			psi := fmt.Sprint(res.Psi.IntegerBasis())
			fmt.Fprintf(&b, "%s: psi=%s\n", strat, psi)
			if j := slices.Index(seen, psi); j >= 0 {
				continue
			}
			seen = append(seen, psi)
			tr, err := Transform(nest, res.Psi)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			writeTransformed(&b, tr)
		}
	}
	goldenCompare(t, "analysis.golden", []byte(b.String()))
}

func writeAnalysis(b *strings.Builder, a *deps.Analysis) {
	for _, array := range a.Nest.Arrays() {
		for _, rel := range a.PairRelations(array) {
			fmt.Fprintf(b, "pair %s | %s r=%v solvable=%t particular=%s realizable=%t\n",
				rel.A, rel.B, rel.R, rel.RationalSolvable, particular(a.Nest.ReferenceMatrix(array), rel), rel.IntegerRealizable)
		}
	}
	for _, d := range a.AllDependences() {
		fmt.Fprintf(b, "dep %s r=%v distance=%v zero=%t\n", d, d.R, d.Distance, d.ZeroDistance)
	}
}

// particular renders a pair's particular solution of H·t̄ = r̄ as its
// integer numerators over their reduced common denominator; the pair's
// Particular is those numerators.
func particular(h [][]int64, rel deps.PairRelation) string {
	if !rel.RationalSolvable {
		return "-"
	}
	num, den, _ := intlin.FromRows(h).Solve(rel.R)
	if !slices.Equal(num, rel.Particular) {
		return fmt.Sprintf("%v, not the pair's %v", num, rel.Particular)
	}
	return fmt.Sprintf("%v/%d", num, den)
}

func writeTransformed(b *strings.Builder, tr *Transformed) {
	n := tr.Nest.Depth()
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = tr.T.A[i*n : (i+1)*n]
	}
	fmt.Fprintf(b, "  Q=%v pivots=%v inner=%v T=%v\n", tr.Q, tr.PivotCols, tr.InnerLevels, rows)
	for i, row := range tr.inv {
		fmt.Fprintf(b, "  inv%d=%v/%d\n", i, row.Coeffs, row.Den)
	}
	for m, vb := range tr.Bounds {
		fmt.Fprintf(b, "  bounds%d lower=%s upper=%s\n", m, terms(vb.Lower), terms(vb.Upper))
	}
	b.WriteString(tr.String())
}

func terms(ts []BoundTerm) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprintf("(%v+%d)/%d", t.Coeffs, t.Const, t.Den)
	}
	return strings.Join(parts, " ")
}

// goldenCompare checks got against testdata/name, or rewrites the file
// under UPDATE_GOLDEN.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", name, len(gl), len(wl))
	}
}
