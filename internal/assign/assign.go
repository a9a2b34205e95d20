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

	"commfree/internal/partition"
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
// loop whose blocks it places.
type Assignment struct {
	Placement
	Tr *transform.Transformed
	P  int // requested processor count
}

// Assign builds the cyclic assignment for p processors.
func Assign(tr *transform.Transformed, p int) *Assignment {
	return &Assignment{Placement: Place(tr.Q, p), Tr: tr, P: p}
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

// Blocks places a partition: block B_j runs whole on node[j], the owner
// of its forall point Q·b̄_j (a MARS block, Ψ = 0, spans many forall
// points and runs where its base point's is), and loads[id] counts the
// iterations processor id runs.
func (pl Placement) Blocks(it *partition.IterationPartition) (node []int, loads []int64) {
	return pl.place(len(it.Blocks), pl.Q, func(j int) ([]int64, int64) { return it.Blocks[j].Base, int64(it.Blocks[j].Size()) })
}

// place is the one placement: block j, of block(j) = (x, size), runs on
// the owner of its forall point — q·x for an iteration x, or x when q is
// nil — whose grid coordinates forall_i mod pᵢ are linearized row-major.
func (pl Placement) place(blocks int, q [][]int64, block func(j int) (x []int64, size int64)) (node []int, loads []int64) {
	node, loads = make([]int, blocks), make([]int64, pl.NumProcessors())
	for j := range node {
		x, size := block(j)
		id := 0
		for i, d := range pl.Dims {
			var f int64
			if q == nil {
				f = x[i]
			} else {
				for c, a := range q[i] {
					f += a * x[c]
				}
			}
			id = id*d + int((f%int64(d)+int64(d))%int64(d))
		}
		node[j] = id
		loads[id] += size
	}
	return node, loads
}

// placed places the partition the loop was transformed for, or a walked
// loop's coset blocks, one per forall point.
func (a *Assignment) placed() (node []int, loads []int64) {
	if it := a.Tr.Partition(); it != nil {
		return a.Blocks(it)
	}
	points, sizes := a.Tr.ForallPoints(), a.Tr.BlockSizes()
	return a.place(len(points), nil, func(j int) ([]int64, int64) { return points[j], sizes[j] })
}

// Workloads returns the iteration count each processor ID runs.
func (a *Assignment) Workloads() []int64 {
	_, loads := a.placed()
	return loads
}

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
