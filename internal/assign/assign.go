// Package assign maps the forall space of a transformed loop onto a
// fixed-size processor grid (Section IV of the paper).
//
// The paper numbers p processors as a k-dimensional grid p₁×…×p_k with
// pᵢ = ⌊p^(1/k)⌋ for i < k and p_k = ⌊p / ⌊p^(1/k)⌋^(k−1)⌋, and assigns
// forall point (I′_{y₁}, …, I′_{y_k}) to processor (I′_{y₁} mod p₁, …,
// I′_{y_k} mod p_k) — the cyclic ("mod") distribution. Neighboring blocks
// have nearly equal iteration counts, so the cyclic assignment balances
// the workload.
package assign

import (
	"fmt"
	"math"
	"strings"

	"commfree/internal/transform"
)

// Factor returns the paper's grid factorization p₁×…×p_k of p processors.
// For k = 0 (a sequential loop) it returns an empty slice.
func Factor(p, k int) []int {
	if p < 1 {
		panic(fmt.Errorf("assign: processor count %d < 1", p))
	}
	if k <= 0 {
		return nil
	}
	dims := make([]int, k)
	side := int(math.Floor(math.Pow(float64(p), 1/float64(k))))
	if side < 1 {
		side = 1
	}
	// Floating-point roots can land just below the exact integer root
	// (e.g. p=27, k=3 → 2.9999); fix up.
	for pow(side+1, k) <= p {
		side++
	}
	rest := p
	for i := 0; i < k-1; i++ {
		dims[i] = side
		rest /= side
	}
	dims[k-1] = rest
	return dims
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// Placement is Section IV's cyclic block placement: block B_j with base
// point b̄_j runs on processor (Q·b̄_j) mod (p₁,…,p_k). It is a function
// of the complement basis Q and the grid alone, so whoever holds a
// partition — whose Q it is — places blocks without deriving the loop
// transformation.
type Placement struct {
	Q    [][]int64 // integer basis of Ψ's orthogonal complement, one row per forall level
	Dims []int     // grid shape p₁×…×p_k (len = len(Q); empty for a sequential loop)
}

// Place factors p processors into the grid of the len(q)-dimensional
// forall space.
func Place(q [][]int64, p int) Placement {
	return Placement{Q: q, Dims: Factor(p, len(q))}
}

// Assignment is the cyclic placement of a transformed loop, with the
// loop whose enumerated forall space gives its workloads and block lists.
type Assignment struct {
	Placement
	Tr *transform.Transformed
	P  int // requested processor count
}

// Assign builds the cyclic assignment for p processors.
func Assign(tr *transform.Transformed, p int) *Assignment {
	return &Assignment{Placement: Place(tr.Q, p), Tr: tr, P: p}
}

// OwnerCoords returns the grid coordinates of the processor owning the
// forall point: aᵢ = forall_i mod pᵢ (canonical, non-negative).
func (pl Placement) OwnerCoords(forall []int64) []int {
	coords := make([]int, len(pl.Dims))
	for i, d := range pl.Dims {
		coords[i] = int((forall[i]%int64(d) + int64(d)) % int64(d))
	}
	return coords
}

// OwnerID linearizes OwnerCoords row-major into [0, NumProcessors()).
func (pl Placement) OwnerID(forall []int64) int {
	id := 0
	for i, co := range pl.OwnerCoords(forall) {
		id = id*pl.Dims[i] + co
	}
	return id
}

// OwnerOf returns the processor that runs the block containing the
// original iteration orig: the cyclic owner of its forall point Q·ī. The
// forall point is constant across a coset block (Q ⊥ Ψ), so a block's
// base point names its processor.
func (pl Placement) OwnerOf(orig []int64) int {
	id := 0
	for i, d := range pl.Dims {
		var f int64
		for j, q := range pl.Q[i] {
			f += q * orig[j]
		}
		id = id*d + int((f%int64(d)+int64(d))%int64(d))
	}
	return id
}

// NumProcessors returns the number of grid processors actually used
// (∏ pᵢ ≤ p; 1 when the loop is sequential).
func (pl Placement) NumProcessors() int {
	n := 1
	for _, d := range pl.Dims {
		n *= d
	}
	return n
}

// Workloads returns the iteration count executed by each processor ID.
func (a *Assignment) Workloads() []int64 {
	loads := make([]int64, a.NumProcessors())
	sizes := a.Tr.BlockSizes()
	for i, f := range a.Tr.ForallPoints() {
		loads[a.OwnerID(f)] += sizes[i]
	}
	return loads
}

// BlocksOf returns the forall points owned by the processor with the
// given ID, in lexicographic order.
func (a *Assignment) BlocksOf(id int) [][]int64 {
	var out [][]int64
	for _, f := range a.Tr.ForallPoints() {
		if a.OwnerID(f) == id {
			out = append(out, f)
		}
	}
	return out
}

// Imbalance returns (max load − min load) / mean load over all
// processors; 0 is perfect.
func (a *Assignment) Imbalance() float64 { return imbalance(a.Workloads()) }

// imbalance is (max − min) / mean of per-processor loads.
func imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	min, max, sum := loads[0], loads[0], int64(0)
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max-min) / mean
}

// Summary renders the assignment as a per-processor load table.
func (a *Assignment) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "processors: %d as grid %v\n", a.NumProcessors(), a.Dims)
	loads := a.Workloads()
	for id, l := range loads {
		fmt.Fprintf(&b, "  PE%d: %d iterations\n", id, l)
	}
	fmt.Fprintf(&b, "imbalance: %.3f\n", imbalance(loads))
	return b.String()
}
