// Package space represents linear subspaces of Qⁿ — the "partitioning
// spaces" Ψ at the heart of the paper.
//
// A Space is stored as the integer reduced-row-echelon basis of its
// vectors (intlin's RREF: one primitive row per pivot, pivot positive),
// a form unique to the subspace, so span equality, membership, union and
// dimension queries are canonical and cheap, and the basis is already the
// gcd-normalized integer one the paper reports Ψ in. The orthogonal
// complement (the paper writes Ker(Ψ) in Section IV) is kept the same
// way, exactly as the program transformation requires (each basis vector
// ā has gcd(ā) = 1).
package space

import (
	"fmt"
	"slices"
	"strings"

	"commfree/internal/intlin"
)

// Space is a linear subspace of Qⁿ. The zero Space is invalid; construct
// with Span or Zero. Spaces are immutable.
type Space struct {
	n     int       // ambient dimension
	basis [][]int64 // RREF basis, one primitive row per pivot; none when trivial
}

// Zero returns the trivial subspace {0} of Qⁿ.
func Zero(n int) *Space { return &Space{n: n} }

// Full returns the whole space Qⁿ.
func Full(n int) *Space {
	s := &Space{n: n, basis: make([][]int64, n)}
	for i := range s.basis {
		s.basis[i] = make([]int64, n)
		s.basis[i][i] = 1
	}
	return s
}

// Span returns the span of the given integer vectors in Qⁿ. All vectors
// must have length n. Zero and duplicate vectors are tolerated.
func Span(n int, vectors ...[]int64) *Space {
	m := intlin.NewMat(len(vectors), n)
	for i, v := range vectors {
		if len(v) != n {
			panic(fmt.Errorf("space: vector %d has length %d, ambient %d", i, len(v), n))
		}
		copy(m.A[i*n:], v)
	}
	r, pivots := m.RREF()
	s := &Space{n: n, basis: make([][]int64, len(pivots))}
	for i := range s.basis {
		s.basis[i] = r.A[i*n : (i+1)*n : (i+1)*n]
	}
	return s
}

// Ambient returns the ambient dimension n.
func (s *Space) Ambient() int { return s.n }

// Dim returns the dimension of the subspace.
func (s *Space) Dim() int { return len(s.basis) }

// IsZero reports whether the subspace is trivial.
func (s *Space) IsZero() bool { return s.Dim() == 0 }

// IntegerBasis returns the canonical basis: primitive integer vectors
// (each with positive leading entry and entry gcd 1), one per dimension.
// The slices are fresh.
func (s *Space) IntegerBasis() [][]int64 {
	out := make([][]int64, len(s.basis))
	for i, row := range s.basis {
		out[i] = slices.Clone(row)
	}
	return out
}

// Contains reports whether vector v lies in the subspace: v ∈ span(B)
// iff rank(B ∪ {v}) == rank(B).
func (s *Space) Contains(v []int64) bool {
	return Span(s.n, append(slices.Clip(s.basis), v)...).Dim() == s.Dim()
}

// Union returns the smallest subspace containing both s and t (their sum).
func (s *Space) Union(t *Space) *Space {
	return Span(s.n, append(slices.Clip(s.basis), t.basis...)...)
}

// Equal reports whether s and t are the same subspace.
func (s *Space) Equal(t *Space) bool {
	return s.n == t.n && slices.EqualFunc(s.basis, t.basis, slices.Equal)
}

// SubspaceOf reports whether s ⊆ t.
func (s *Space) SubspaceOf(t *Space) bool {
	return s.n == t.n && s.Union(t).Dim() == t.Dim()
}

// OrthogonalComplement returns the subspace of all vectors orthogonal to s
// (the paper's Ker(Ψ) used in Section IV's projection step): the null
// space of the basis matrix, x with B·x = 0 ⇔ x ⟂ every basis row.
func (s *Space) OrthogonalComplement() *Space {
	if s.IsZero() {
		return Full(s.n)
	}
	return Span(s.n, intlin.FromRows(s.basis).NullSpace()...)
}

// OrthogonalComplementIntegerBasis returns a primitive-integer basis
// (gcd(ā) = 1 per vector) of the orthogonal complement, the basis Q the
// transformation of Section IV starts from.
func (s *Space) OrthogonalComplementIntegerBasis() [][]int64 {
	return s.OrthogonalComplement().IntegerBasis()
}

// String renders the space as span{...} with integer-normalized vectors.
func (s *Space) String() string {
	if s.IsZero() {
		return "span{}"
	}
	var parts []string
	for _, v := range s.basis {
		var comps []string
		for _, x := range v {
			comps = append(comps, fmt.Sprintf("%d", x))
		}
		parts = append(parts, "("+strings.Join(comps, ",")+")")
	}
	return "span{" + strings.Join(parts, ", ") + "}"
}
