// Package figures regenerates the paper's figures as textual renderings:
// data spaces with their data-referenced vectors (Fig. 1), data and
// iteration partitions of loops L1–L3 (Figs. 2–5, 8, 9), and the
// processor assignment of the transformed loop L4′ (Fig. 10).
//
// Each figure is produced from the same analysis pipeline the library
// exposes — nothing is hard-coded beyond the loop definitions — so the
// renderings double as regression fixtures for the partitioner.
package figures

import (
	"fmt"
	"sort"
	"strings"

	"commfree/internal/assign"
	"commfree/internal/deps"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/redundant"
	"commfree/internal/space"
	"commfree/internal/transform"
)

// Render returns the named figure (1–10).
func Render(n int) (string, error) {
	switch n {
	case 1:
		return Fig1(), nil
	case 2:
		return Fig2(), nil
	case 3:
		return Fig3(), nil
	case 4:
		return Fig4(), nil
	case 5:
		return Fig5(), nil
	case 6:
		return Fig6(), nil
	case 7:
		return Fig7(), nil
	case 8:
		return Fig8(), nil
	case 9:
		return Fig9(), nil
	case 10:
		return Fig10(), nil
	}
	return "", fmt.Errorf("figures: no figure %d", n)
}

// elementsOf collects the data-space points of one array touched by the
// loop, optionally restricted to non-redundant computations.
func elementsOf(nest *loop.Nest, array string, red *redundant.Result) map[string][]int64 {
	out := map[string][]int64{}
	for _, it := range nest.Iterations() {
		for si, st := range nest.Body {
			if red != nil && red.IsRedundant(si, it) {
				continue
			}
			for _, r := range st.Reads {
				if r.Array == array {
					e := r.Index(it)
					out[fmt.Sprint(e)] = e
				}
			}
			if st.Write.Array == array {
				e := st.Write.Index(it)
				out[fmt.Sprint(e)] = e
			}
		}
	}
	return out
}

// bounds returns the bounding box of a set of 2-D points.
func bounds(elems map[string][]int64) (lo, hi [2]int64) {
	first := true
	for _, e := range elems {
		if first {
			lo = [2]int64{e[0], e[1]}
			hi = lo
			first = false
			continue
		}
		for d := 0; d < 2; d++ {
			if e[d] < lo[d] {
				lo[d] = e[d]
			}
			if e[d] > hi[d] {
				hi[d] = e[d]
			}
		}
	}
	return lo, hi
}

// dataSpaceGrid renders the 2-D data space of one array: '*' for used
// elements, '·' for unused grid points inside the bounding box.
func dataSpaceGrid(title string, elems map[string][]int64) string {
	var b strings.Builder
	lo, hi := bounds(elems)
	fmt.Fprintf(&b, "%s  [%d:%d, %d:%d]\n", title, lo[0], hi[0], lo[1], hi[1])
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			if _, ok := elems[fmt.Sprint([]int64{x, y})]; ok {
				b.WriteString(" *")
			} else {
				b.WriteString(" ·")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig1 shows the data spaces of arrays A, B, C of loop L1 with their
// data-referenced vectors (Definition 1).
func Fig1() string {
	nest := loop.L1()
	a, err := deps.Analyze(nest)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	b.WriteString("Fig. 1 — data spaces and data-referenced vectors, loop L1\n\n")
	for _, array := range nest.Arrays() {
		elems := elementsOf(nest, array, nil)
		b.WriteString(dataSpaceGrid("array "+array, elems))
		rv := a.DataReferencedVectors(array)
		if len(rv) == 0 {
			b.WriteString("data-referenced vectors: none (single reference)\n\n")
			continue
		}
		var parts []string
		for _, r := range rv {
			parts = append(parts, fmt.Sprintf("(%d,%d)", r[0], r[1]))
		}
		fmt.Fprintf(&b, "data-referenced vectors: %s\n\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// dataBlocksGrid renders a data partition: each used element labeled with
// its block ID (or the copy count when duplicated).
func dataBlocksGrid(title string, dp *partition.DataPartition) string {
	owners := map[string][]int{}
	pts := map[string][]int64{}
	for _, blk := range dp.Blocks {
		for _, e := range blk.Elements {
			k := fmt.Sprint(e)
			owners[k] = append(owners[k], blk.BlockID)
			pts[k] = e
		}
	}
	var b strings.Builder
	lo, hi := bounds(pts)
	fmt.Fprintf(&b, "%s  [%d:%d, %d:%d]  (cells show owning block, '+n' = n copies)\n",
		title, lo[0], hi[0], lo[1], hi[1])
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			k := fmt.Sprint([]int64{x, y})
			own := owners[k]
			switch {
			case len(own) == 0:
				b.WriteString("   ·")
			case len(own) == 1:
				fmt.Fprintf(&b, " %3d", own[0])
			default:
				fmt.Fprintf(&b, "  +%d", len(own))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig2 shows the data blocks of arrays A, B, C of loop L1 under the
// non-duplicate partition (seven blocks per array).
func Fig2() string {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	b.WriteString("Fig. 2 — data partition of loop L1 along (1,1), 7 blocks per array\n\n")
	for _, array := range res.Analysis.Nest.Arrays() {
		b.WriteString(dataBlocksGrid("array "+array, res.DataPartition(array)))
		b.WriteString("\n")
	}
	return b.String()
}

// iterationGrid renders a 2-D iteration partition: cells show block IDs,
// base points are marked with '*'.
func iterationGrid(p *partition.IterationPartition) string {
	base := map[string]bool{}
	for _, blk := range p.Blocks {
		base[fmt.Sprint(blk.Base)] = true
	}
	lo, hi, ok := p.Nest.ConstBounds()
	if !ok {
		return "(non-constant bounds)"
	}
	var b strings.Builder
	b.WriteString("(cells show block ID; '*' marks the block's base point)\n")
	for i := lo[0]; i <= hi[0]; i++ {
		for j := lo[1]; j <= hi[1]; j++ {
			it := []int64{i, j}
			blk := p.BlockOf(it)
			mark := " "
			if base[fmt.Sprint(it)] {
				mark = "*"
			}
			fmt.Fprintf(&b, " %2d%s", blk.ID, mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig3 shows the iteration partition of loop L1 (seven diagonal blocks).
func Fig3() string {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		panic(err)
	}
	return "Fig. 3 — iteration partition of loop L1 by Ψ = span{(1,1)}\n\n" +
		iterationGrid(res.Iter)
}

// Fig4 shows the duplicate-data partition of arrays A and B of loop L2:
// one block per iteration, with the shared anti-diagonal elements of A
// replicated.
func Fig4() string {
	res, err := partition.Compute(loop.L2(), partition.Duplicate)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	b.WriteString("Fig. 4 — data partition of loop L2 with duplicate data (16 blocks)\n\n")
	for _, array := range []string{"A", "B"} {
		dp := res.DataPartition(array)
		b.WriteString(dataBlocksGrid("array "+array, dp))
		fmt.Fprintf(&b, "copy factor: %.2f\n\n", dp.CopyFactor)
	}
	return b.String()
}

// Fig5 shows the iteration partition of loop L2 under the duplicate
// strategy: 16 singleton blocks.
func Fig5() string {
	res, err := partition.Compute(loop.L2(), partition.Duplicate)
	if err != nil {
		panic(err)
	}
	return "Fig. 5 — iteration partition of loop L2 by Ψʳ = span{} (fully parallel)\n\n" +
		iterationGrid(res.Iter)
}

// Fig6 is the general data reference graph template of Definition 6: the
// four structural connection rules between write vertices w_i and read
// vertices r_j.
func Fig6() string {
	return `Fig. 6 — data reference graph G^A of array A for a loop L (Definition 6)

vertices: W^A = {w1 … wm} (left-hand-side references, statement order)
          R^A = {r1 … rv} (right-hand-side references)

edges (when the dependence exists between the reference pair):
  1. (w_i, w_j)  output dependences δo, for all 1 ≤ i < j ≤ m
  2. (r_i, r_j)  input dependences δi, for all 1 ≤ i < j ≤ v
  3. (w_1..w_τj, r_j)  flow dependences δf  (writes preceding the read)
  4. (r_j, w_τj+1..w_m) antidependences δa  (writes following the read)

Computed instances of this graph are available for any analyzed loop via
deps.Analysis.ReferenceGraph; Fig. 7 shows it for loop L3.
`
}

// Fig7 is the data reference graph of array A in loop L3, computed from
// the dependence analysis. (Vertex numbering is canonical statement
// order: our r1 is S1's read A[i-1,j-1] — the paper labels that one r2.)
func Fig7() string {
	a, err := deps.Analyze(loop.L3())
	if err != nil {
		panic(err)
	}
	return "Fig. 7 — data reference graph G^A of array A for loop L3\n\n" +
		a.ReferenceGraph("A").String()
}

// Fig8 shows the partition of array A of loop L3 under the minimal
// reduced space Ψ^minʳ = span{(1,0)} (four column blocks, restricted to
// non-redundant computations).
func Fig8() string {
	res, err := partition.Compute(loop.L3(), partition.MinimalDuplicate)
	if err != nil {
		panic(err)
	}
	return "Fig. 8 — data partition of array A of loop L3 by Ψ^minʳ = span{(1,0)}\n\n" +
		dataBlocksGrid("array A", res.DataPartition("A"))
}

// Fig9 shows the iteration partition of loop L3 under Ψ^minʳ: solid
// points run both statements, dotted points only S2 (S1 is redundant
// there).
func Fig9() string {
	res, err := partition.Compute(loop.L3(), partition.MinimalDuplicate)
	if err != nil {
		panic(err)
	}
	red := res.Redundant
	lo, hi, _ := res.Analysis.Nest.ConstBounds()
	var b strings.Builder
	b.WriteString("Fig. 9 — iteration partition of loop L3 by Ψ^minʳ = span{(1,0)}\n\n")
	b.WriteString("(cells show block ID; '*' = S1 and S2 both execute, 'o' = only S2, S1 redundant)\n")
	for i := lo[0]; i <= hi[0]; i++ {
		for j := lo[1]; j <= hi[1]; j++ {
			it := []int64{i, j}
			blk := res.Iter.BlockOf(it)
			mark := "*"
			if red.IsRedundant(0, it) {
				mark = "o"
			}
			fmt.Fprintf(&b, " %2d%s", blk.ID, mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig10 shows the processor assignment of the transformed loop L4′ on a
// 2×2 grid: the forall plane with per-block iteration counts and owner
// processors, and the resulting per-processor workloads (16 each).
func Fig10() string {
	psi := space.SpanInts(3, []int64{1, -1, 1})
	tr, err := transform.TransformWithBasis(loop.L4(), psi, [][]int64{{1, 1, 0}, {-1, 0, 1}})
	if err != nil {
		panic(err)
	}
	asg := assign.Assign(tr, 4)
	counts := map[string]int64{}
	sizes := tr.BlockSizes()
	for i, f := range tr.ForallPoints() {
		counts[fmt.Sprint(f)] = sizes[i]
	}
	var b strings.Builder
	b.WriteString("Fig. 10 — processor assignment of loop L4′ on a 2×2 grid\n\n")
	b.WriteString("(rows: i1' = 2..8; cols: i2' = -3..3; cells: iterations@PE)\n")
	for i1p := int64(2); i1p <= 8; i1p++ {
		for i2p := int64(-3); i2p <= 3; i2p++ {
			f := []int64{i1p, i2p}
			c, ok := counts[fmt.Sprint(f)]
			if !ok {
				b.WriteString("     ·")
				continue
			}
			fmt.Fprintf(&b, " %2d@P%d", c, asg.OwnerID(f))
		}
		b.WriteString("\n")
	}
	b.WriteString("\nper-processor workloads:\n")
	loads := asg.Workloads()
	ids := make([]int, len(loads))
	for i := range ids {
		ids[i] = i
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "  PE%d: %d iterations\n", id, loads[id])
	}
	return b.String()
}
