package transform

import (
	"slices"
	"testing"

	"commfree/internal/intlin"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/space"
)

// sweepTransform is one distinct transform of the analysis sweep.
type sweepTransform struct {
	index int // the nest's number in analysis.golden
	strat partition.Strategy
	tr    *Transformed
}

// sweepTransforms transforms every nest of the analysis sweep under the
// five coset strategies, once per distinct Ψ, as analysis.golden does.
func sweepTransforms(t *testing.T) []sweepTransform {
	t.Helper()
	var out []sweepTransform
	for i, nest := range sweep(37) {
		pc, err := partition.NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("nest %d: %v", i, err)
		}
		dup := map[string]bool{pc.Index.Arrays[0]: true}
		var seen []*space.Space
		for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
			partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Selective} {
			res, err := pc.Compute(strat, dup, 0)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			if slices.ContainsFunc(seen, res.Psi.Equal) {
				continue
			}
			seen = append(seen, res.Psi)
			tr, err := Transform(nest, res.Psi)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			out = append(out, sweepTransform{i, strat, tr})
		}
	}
	return out
}

// probeNests are the sweep transforms the unimodular completion moved
// most: nests 128, 49 and 54, whose complement's echelon basis was not
// a lattice basis, and nest 212, Q = [[2 5 3]], which no unit rows
// complete.
func probeNests(t *testing.T) []sweepTransform {
	t.Helper()
	nests := sweep(37)
	var out []sweepTransform
	for _, p := range []struct {
		index int
		strat partition.Strategy
	}{{128, partition.NonDuplicate}, {49, partition.Duplicate}, {54, partition.NonDuplicate}, {212, partition.Duplicate}} {
		res, err := partition.Compute(nests[p.index], p.strat)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Transform(nests[p.index], res.Psi)
		if err != nil {
			t.Fatal(err)
		}
		if det := tr.T.Det(); det != 1 && det != -1 {
			t.Fatalf("nest %d: det T = %d", p.index, det)
		}
		out = append(out, sweepTransform{p.index, p.strat, tr})
	}
	return out
}

// walkSteps counts the innermost steps a walk of tr's bounds takes,
// read from the bounds alone.
func walkSteps(tr *Transformed) int64 {
	n := tr.Nest.Depth()
	point := make([]int64, n)
	var rec func(m int) int64
	rec = func(m int) int64 {
		lo, hi := tr.Bounds[m].Eval(point[:m])
		if m == n-1 {
			return max(0, hi-lo+1)
		}
		var steps int64
		for v := lo; v <= hi; v++ {
			point[m] = v
			steps += rec(m + 1)
		}
		return steps
	}
	if n == 0 {
		return 0
	}
	return rec(0)
}

// minorsGCD is the gcd of the k×k minors of the k rows q, from the
// minors themselves.
func minorsGCD(q [][]int64, n int) int64 {
	var g int64
	var rec func(from int, cols []int)
	rec = func(from int, cols []int) {
		if len(cols) == len(q) {
			sub := make([][]int64, len(q))
			for i, row := range q {
				for _, c := range cols {
					sub[i] = append(sub[i], row[c])
				}
			}
			g, _, _ = intlin.ExtGCD(g, intlin.FromRows(sub).Det())
			return
		}
		for c := from; c < n; c++ {
			rec(c+1, append(cols, c))
		}
	}
	rec(0, nil)
	return g
}

// TestSweepIsUnimodular: over the analysis sweep every T is unimodular
// and every Q a lattice basis (its k×k minors have gcd 1); the walk takes
// exactly one innermost step per iteration and runs each block in
// lexicographic order. 44 of the transforms are ones whose paper
// completion (echelon Q, greedy unit rows) has |det T| > 1; they hold
// 1036 iterations.
func TestSweepIsUnimodular(t *testing.T) {
	sweep := sweepTransforms(t)
	if len(sweep) != 534 {
		t.Fatalf("%d distinct transforms, want 534", len(sweep))
	}
	var former, formerSteps int64
	for _, st := range sweep {
		tr, n := st.tr, st.tr.Nest.Depth()
		if det := tr.T.Det(); det != 1 && det != -1 {
			t.Errorf("nest %d %s: det T = %d", st.index, st.strat, det)
		}
		if tr.K > 0 && minorsGCD(tr.Q, n) != 1 {
			t.Errorf("nest %d %s: Q = %v, minors' gcd %d", st.index, st.strat, tr.Q, minorsGCD(tr.Q, n))
		}
		var visits int64
		var prev []int64
		tr.Visit(func(forall, orig []int64) {
			visits++
			if prev != nil && slices.Equal(forall, tr.NewPoint(prev)[:tr.K]) && !loop.LexLess(prev, orig) {
				t.Errorf("nest %d %s: block %v runs %v before %v", st.index, st.strat, forall, prev, orig)
			}
			prev = slices.Clone(orig)
		})
		steps := walkSteps(tr)
		if visits != steps || visits != tr.Nest.NumIterations() {
			t.Errorf("nest %d %s: %d visits in %d steps, %d iterations", st.index, st.strat, visits, steps, tr.Nest.NumIterations())
		}
		echelon := tr.Psi.OrthogonalComplement().IntegerBasis()
		if rows := unitCompletion(echelon, n); !slices.EqualFunc(echelon, tr.Q, slices.Equal) || intlin.Abs(intlin.FromRows(rows).Det()) != 1 {
			former++
			formerSteps += steps
		}
	}
	if former != 44 || formerSteps != 1036 {
		t.Errorf("%d transforms had a non-unimodular paper completion, walked in %d steps; want 44 and 1036", former, formerSteps)
	}
}
