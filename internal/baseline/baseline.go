// Package baseline implements the comparison method of Ramanujam &
// Sadayappan ("Compile-time techniques for data distribution in
// distributed memory machines", IEEE TPDS 2(4), 1991), against which the
// paper positions its partitioner.
//
// Their method applies to For-all loops (no loop-carried flow dependence)
// and searches for communication-free partitionings along
// (n−1)-dimensional hyperplanes: an iteration hyperplane normal ḡ such
// that, for every array A, some data hyperplane normal w̄_A satisfies
//
//	w̄_Aᵀ·H_A ∥ ḡ   and   w̄_Aᵀ·r̄ = 0 for every data-referenced vector r̄.
//
// Then iterations with equal ḡ·ī and the elements they touch form
// matching hyperplane families with no cross-family access. Because the
// partition is always (n−1)-dimensional, the method exposes at most a
// one-dimensional family of parallel blocks; the paper's Theorems 1–2 can
// do strictly better whenever dim(Ψ) < n−1.
package baseline

import (
	"fmt"

	"commfree/internal/deps"
	"commfree/internal/intlin"
	"commfree/internal/loop"
	"commfree/internal/space"
)

// Result reports the outcome of the hyperplane search.
type Result struct {
	// Applicable is false when the loop is not a For-all loop (it carries
	// a loop-carried flow dependence), in which case the method does not
	// apply — the situation the paper calls out for L1.
	Applicable bool
	// Found reports whether a communication-free hyperplane exists.
	Found bool
	// G is the iteration-hyperplane normal (primitive integer vector).
	G []int64
	// Psi is the induced partitioning space Ker(ḡ) = {t̄ : ḡ·t̄ = 0},
	// always of dimension n−1 when Found.
	Psi *space.Space
	// NumBlocks is the number of hyperplane blocks over the nest's
	// iteration space (the method's degree of parallelism).
	NumBlocks int
}

// Hyperplane runs the baseline partitioner on a validated nest.
func Hyperplane(nest *loop.Nest) (*Result, error) {
	a, err := deps.Analyze(nest)
	if err != nil {
		return nil, err
	}
	res := &Result{Applicable: true}
	// For-all check: any flow dependence with a nonzero realizable
	// distance makes the loop non-For-all.
	for _, d := range a.AllDependences() {
		if d.Kind != deps.Flow {
			continue
		}
		if d.Distance == nil || !isZero(d.Distance) {
			res.Applicable = false
			return res, nil
		}
	}

	n := nest.Depth()
	// Candidate ḡ directions per array: {H_Aᵀ·w̄ : w̄ ⟂ every r̄ of A}.
	gSpace := space.Full(n)
	for _, array := range nest.Arrays() {
		h := nest.ReferenceMatrix(array)
		d := len(h)
		// w̄ constraint space: null space of the matrix whose rows are the
		// data-referenced vectors.
		rvecs := a.DataReferencedVectors(array)
		wBasis := space.Full(d).IntegerBasis() // unconstrained: all of Q^d
		if len(rvecs) > 0 {
			wBasis = intlin.FromRows(rvecs).NullSpace()
		}
		// Image under H_Aᵀ.
		var gVecs [][]int64
		for _, w := range wBasis {
			g := make([]int64, n)
			for k, row := range h {
				for i, x := range row {
					g[i] = intlin.MulAdd(g[i], w[k], x)
				}
			}
			gVecs = append(gVecs, g)
		}
		ga := space.Span(n, gVecs...)
		gSpace = intersect(gSpace, ga)
		if gSpace.IsZero() {
			return res, nil // no common hyperplane direction
		}
	}
	// Pick a primitive integer ḡ from the intersection.
	basis := gSpace.IntegerBasis()
	if len(basis) == 0 {
		return res, nil
	}
	res.Found = true
	res.G = basis[0] // primitive already
	// Induced partitioning space Ker(ḡ).
	res.Psi = space.Span(n, res.G).OrthogonalComplement()
	// Count hyperplane blocks.
	seen := map[int64]bool{}
	nest.Walk(func(it []int64) bool {
		var dot int64
		for k, g := range res.G {
			dot = intlin.MulAdd(dot, g, it[k])
		}
		seen[dot] = true
		return true
	})
	res.NumBlocks = len(seen)
	return res, nil
}

// intersect returns a ∩ b via orthogonal complements:
// a ∩ b = (a⊥ + b⊥)⊥.
func intersect(a, b *space.Space) *space.Space {
	return a.OrthogonalComplement().Union(b.OrthogonalComplement()).OrthogonalComplement()
}

func isZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// String renders the result.
func (r *Result) String() string {
	switch {
	case !r.Applicable:
		return "hyperplane method not applicable (not a For-all loop)"
	case !r.Found:
		return "no communication-free hyperplane exists"
	default:
		return fmt.Sprintf("hyperplane g=%v, %d blocks", r.G, r.NumBlocks)
	}
}
