package transform

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/space"
)

// transformPaperL4 builds the Section IV worked example with the paper's
// basis Q = {(1,1,0), (-1,0,1)}.
func transformPaperL4(t *testing.T) *Transformed {
	t.Helper()
	psi := space.Span(3, []int64{1, -1, 1})
	tr, err := TransformWithBasis(loop.L4(), psi, [][]int64{{1, 1, 0}, {-1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTransformL4PaperShape(t *testing.T) {
	tr := transformPaperL4(t)
	if tr.K != 2 || tr.G != 1 {
		t.Fatalf("K=%d G=%d, want 2,1", tr.K, tr.G)
	}
	// Pivot columns y = {1, 2} (1-based in the paper) and inner z = {i1}.
	if len(tr.PivotCols) != 2 || tr.PivotCols[0] != 0 || tr.PivotCols[1] != 1 {
		t.Errorf("pivots = %v, want [0 1]", tr.PivotCols)
	}
	if len(tr.InnerLevels) != 1 || tr.InnerLevels[0] != 0 {
		t.Errorf("inner = %v, want [0] (i1)", tr.InnerLevels)
	}
	if tr.Names[0] != "i1'" || tr.Names[1] != "i2'" || tr.Names[2] != "i1" {
		t.Errorf("names = %v", tr.Names)
	}
	// i1' = i1 + i2, i2' = -i1 + i3.
	if tr.Q[0][0] != 1 || tr.Q[0][1] != 1 || tr.Q[0][2] != 0 {
		t.Errorf("Q[0] = %v", tr.Q[0])
	}
	if tr.Q[1][0] != -1 || tr.Q[1][1] != 0 || tr.Q[1][2] != 1 {
		t.Errorf("Q[1] = %v", tr.Q[1])
	}
}

func TestTransformL4PaperBounds(t *testing.T) {
	tr := transformPaperL4(t)
	// forall i1' = 2 to 8.
	lo, hi := tr.Bounds[0].Eval(nil)
	if lo != 2 || hi != 8 {
		t.Errorf("i1' ∈ [%d,%d], want [2,8]", lo, hi)
	}
	// forall i2' = max(-3, -i1'+2) to min(3, -i1'+8).
	for i1p := int64(2); i1p <= 8; i1p++ {
		lo, hi := tr.Bounds[1].Eval([]int64{i1p})
		wantLo := maxI(-3, -i1p+2)
		wantHi := minI(3, -i1p+8)
		if lo != wantLo || hi != wantHi {
			t.Errorf("i2' at i1'=%d ∈ [%d,%d], want [%d,%d]", i1p, lo, hi, wantLo, wantHi)
		}
	}
	// for i1 = max(1, i1'-4, -i2'+1) to min(4, i1'-1, -i2'+4).
	for i1p := int64(2); i1p <= 8; i1p++ {
		for i2p := maxI(-3, -i1p+2); i2p <= minI(3, -i1p+8); i2p++ {
			lo, hi := tr.Bounds[2].Eval([]int64{i1p, i2p})
			wantLo := maxI(1, maxI(i1p-4, -i2p+1))
			wantHi := minI(4, minI(i1p-1, -i2p+4))
			if lo != wantLo || hi != wantHi {
				t.Errorf("i1 at (%d,%d) ∈ [%d,%d], want [%d,%d]", i1p, i2p, lo, hi, wantLo, wantHi)
			}
		}
	}
}

func TestTransformL4ExtendedStatements(t *testing.T) {
	tr := transformPaperL4(t)
	// E1: i2 = i1' - i1; E2: i3 = i2' + i1. Check via Original().
	orig := tr.Original([]int64{5, 1, 2}) // i1'=5, i2'=1, i1=2
	if orig[0] != 2 || orig[1] != 3 || orig[2] != 3 {
		t.Errorf("original = %v, want (2,3,3)", orig)
	}
	// The extended statements recover i2 and i3, their rows of T⁻¹.
	if got := tr.String(); !strings.Contains(got, "E1: i2 := i1' - i1") || !strings.Contains(got, "E2: i3 := i2' + i1") || strings.Contains(got, "E3") {
		t.Errorf("extended statements:\n%s", got)
	}
	if !slices.Equal(tr.Inv.Row(1), []int64{1, 0, -1}) || !slices.Equal(tr.Inv.Row(2), []int64{0, 1, 1}) {
		t.Errorf("T⁻¹ rows of i2, i3 = %v, %v", tr.Inv.Row(1), tr.Inv.Row(2))
	}
}

func TestTransformL4Bijection(t *testing.T) {
	tr := transformPaperL4(t)
	seen := map[string]bool{}
	count := 0
	tr.Visit(func(forall, orig []int64) {
		key := fmt.Sprint(orig)
		if seen[key] {
			t.Errorf("iteration %v enumerated twice", orig)
		}
		seen[key] = true
		count++
	})
	if count != 64 {
		t.Errorf("enumerated %d iterations, want 64", count)
	}
	for _, it := range loop.L4().Iterations() {
		if !seen[fmt.Sprint(it)] {
			t.Errorf("iteration %v missed", it)
		}
	}
	// 37 nonempty forall points (blocks).
	if got := len(tr.ForallPoints()); got != 37 {
		t.Errorf("forall points = %d, want 37", got)
	}
}

func TestTransformL4PrettyPrint(t *testing.T) {
	tr := transformPaperL4(t)
	s := tr.String()
	for _, want := range []string{
		"forall i1' = 2 to 8",
		"forall i2' = max(",
		"for i1 = max(",
		"E1: i2 := i1' - i1",
		"E2: i3 := i2' + i1",
		"end-forall",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("pretty print missing %q:\n%s", want, s)
		}
	}
}

// checkBijection transforms the nest with the partition-derived Ψ and
// verifies exact coverage of the iteration space plus block-key agreement
// with the iteration partition.
func checkBijection(t *testing.T, nest *loop.Nest, strat partition.Strategy) {
	t.Helper()
	res, err := partition.Compute(nest, strat)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Transform(nest, res.Psi)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	blockOf := map[string]string{} // forall key per iteration
	tr.Visit(func(forall, orig []int64) {
		key := fmt.Sprint(orig)
		if seen[key] {
			t.Fatalf("%v enumerated twice", orig)
		}
		seen[key] = true
		blockOf[key] = fmt.Sprint(forall)
	})
	want := nest.Iterations()
	if len(seen) != len(want) {
		t.Fatalf("enumerated %d iterations, want %d", len(seen), len(want))
	}
	for _, it := range want {
		if !seen[fmt.Sprint(it)] {
			t.Fatalf("iteration %v missed", it)
		}
	}
	// Two iterations share a forall point iff they share a partition block.
	for _, a := range want {
		for _, b := range want {
			sameForall := blockOf[fmt.Sprint(a)] == blockOf[fmt.Sprint(b)]
			sameBlock := res.Iter.BlockOf(a) == res.Iter.BlockOf(b)
			if sameForall != sameBlock {
				t.Fatalf("block disagreement for %v vs %v: forall %v, partition %v",
					a, b, sameForall, sameBlock)
			}
		}
	}
	// Forall point count equals block count.
	if got := len(tr.ForallPoints()); got != res.Iter.NumBlocks() {
		t.Errorf("forall points = %d, blocks = %d", got, res.Iter.NumBlocks())
	}
}

func TestTransformBijectionAcrossLoops(t *testing.T) {
	cases := []struct {
		name  string
		nest  *loop.Nest
		strat partition.Strategy
	}{
		{"L1 non-dup", loop.L1(), partition.NonDuplicate},
		{"L2 non-dup (sequential)", loop.L2(), partition.NonDuplicate},
		{"L2 dup (fully parallel)", loop.L2(), partition.Duplicate},
		{"L3 minimal dup", loop.L3(), partition.MinimalDuplicate},
		{"L4 non-dup", loop.L4(), partition.NonDuplicate},
		{"L5 dup", loop.L5(4), partition.Duplicate},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkBijection(t, c.nest, c.strat) })
	}
}

func TestTransformSequentialFullPsi(t *testing.T) {
	// Ψ = Q²: K = 0, one block, plain nested for loops.
	tr, err := Transform(loop.L1(), space.Full(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.K != 0 || tr.G != 2 {
		t.Fatalf("K=%d G=%d", tr.K, tr.G)
	}
	count := 0
	tr.Visit(func(_, _ []int64) { count++ })
	if count != 16 {
		t.Errorf("iterations = %d", count)
	}
	if blocks := len(tr.ForallPoints()); blocks != 1 {
		t.Errorf("blocks = %d, want 1", blocks)
	}
}

func TestTransformFullyParallelZeroPsi(t *testing.T) {
	// Ψ = {0}: K = n, G = 0, every iteration its own forall point.
	tr, err := Transform(loop.L1(), space.Zero(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr.K != 2 || tr.G != 0 {
		t.Fatalf("K=%d G=%d", tr.K, tr.G)
	}
	if got := len(tr.ForallPoints()); got != 16 {
		t.Errorf("forall points = %d, want 16", got)
	}
}

// TestTransformNonUnimodular: on the sweep transforms whose paper
// completion (the complement's echelon basis plus greedy unit rows) is
// not unimodular, T is unimodular now, and the walk covers the space
// exactly once with one step per iteration.
func TestTransformNonUnimodular(t *testing.T) {
	for _, pn := range probeNests(t) {
		seen := map[string]bool{}
		pn.tr.Visit(func(_, orig []int64) {
			k := fmt.Sprint(orig)
			if seen[k] {
				t.Fatalf("nest %d: %v twice", pn.index, orig)
			}
			seen[k] = true
		})
		if int64(len(seen)) != pn.tr.Nest.NumIterations() || walkSteps(pn.tr) != int64(len(seen)) {
			t.Errorf("nest %d: enumerated %d in %d steps, want %d", pn.index, len(seen), walkSteps(pn.tr), pn.tr.Nest.NumIterations())
		}
	}
}

func TestTransformIntraBlockLexOrder(t *testing.T) {
	tr := transformPaperL4(t)
	var cur []int64
	var curForall string
	tr.Visit(func(forall, orig []int64) {
		fk := fmt.Sprint(forall)
		if fk != curForall {
			curForall = fk
			cur = nil
		}
		if cur != nil && !loop.LexLess(cur, orig) {
			t.Fatalf("intra-block order violated: %v then %v", cur, orig)
		}
		cp := make([]int64, len(orig))
		copy(cp, orig)
		cur = cp
	})
}

func TestTransformNewPointRoundTrip(t *testing.T) {
	tr := transformPaperL4(t)
	for _, it := range loop.L4().Iterations() {
		j := tr.NewPoint(it)
		back := tr.Original(j)
		for k := range it {
			if back[k] != it[k] {
				t.Fatalf("round trip %v → %v → %v", it, j, back)
			}
		}
	}
}

func TestTransformRejectsBadBasis(t *testing.T) {
	psi := space.Span(3, []int64{1, -1, 1})
	// Wrong count.
	if _, err := TransformWithBasis(loop.L4(), psi, [][]int64{{1, 1, 0}}); err == nil {
		t.Error("short basis accepted")
	}
	// Not orthogonal.
	if _, err := TransformWithBasis(loop.L4(), psi, [][]int64{{1, 0, 0}, {0, 1, 0}}); err == nil {
		t.Error("non-orthogonal basis accepted")
	}
	// Dependent rows.
	if _, err := TransformWithBasis(loop.L4(), psi, [][]int64{{1, 1, 0}, {2, 2, 0}}); err == nil {
		t.Error("dependent basis accepted")
	}
	// A basis of a sublattice: (1,1,0) is not an integer combination.
	if _, err := TransformWithBasis(loop.L4(), psi, [][]int64{{2, 2, 0}, {-1, 0, 1}}); err == nil || !strings.Contains(err.Error(), "lattice") {
		t.Errorf("sublattice basis: err %v", err)
	}
	// Ambient mismatch.
	if _, err := Transform(loop.L4(), space.Zero(2)); err == nil {
		t.Error("ambient mismatch accepted")
	}
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
