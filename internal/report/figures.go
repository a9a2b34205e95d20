package report

// The paper's Figures 1–10 as text. Each is a view of what the compiler
// computes — a partition's data blocks and dense index, the dependence
// analysis, the transformed loop's forall points — with nothing
// hard-coded beyond the loop definitions, so the renderings double as
// regression fixtures for the partitioner.

import (
	"fmt"
	"slices"
	"strings"

	"commfree/internal/assign"
	"commfree/internal/deps"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/space"
	"commfree/internal/transform"
)

// figures are Figures 1–10 in order.
var figures = []func() (string, error){fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10}

// Figure returns the named figure (1–10).
func Figure(n int) (string, error) {
	if n < 1 || n > len(figures) {
		return "", fmt.Errorf("report: no figure %d", n)
	}
	return figures[n-1]()
}

// bbox is the bounding box of a non-empty point set.
func bbox(pts [][]int64) (lo, hi []int64) {
	lo, hi = slices.Clone(pts[0]), slices.Clone(pts[0])
	for _, p := range pts {
		for d := range lo {
			lo[d], hi[d] = min(lo[d], p[d]), max(hi[d], p[d])
		}
	}
	return lo, hi
}

// grid lays non-empty 2-D points out over their bounding box, one line
// per first coordinate. cell renders a grid point from the indices into
// pts of the points at it (none for a point outside the set). It
// returns the lines and the box.
func grid(pts [][]int64, cell func(at []int) string) (rows string, lo, hi []int64) {
	lo, hi = bbox(pts)
	w := hi[1] - lo[1] + 1
	at := make([][]int, (hi[0]-lo[0]+1)*w)
	for i, p := range pts {
		c := (p[0]-lo[0])*w + p[1] - lo[1]
		at[c] = append(at[c], i)
	}
	var b strings.Builder
	for c, a := range at {
		b.WriteString(cell(a))
		if int64(c+1)%w == 0 {
			b.WriteString("\n")
		}
	}
	return b.String(), lo, hi
}

// dataGrid renders one array's data partition over the box of the
// elements its blocks reference: a title line, then cell of the IDs of
// the blocks holding each grid point.
func dataGrid(b *strings.Builder, legend string, dp *partition.DataPartition, cell func(ids []int) string) {
	var pts [][]int64
	var ids []int
	for _, blk := range dp.Blocks {
		for _, e := range blk.Elements {
			pts = append(pts, e)
			ids = append(ids, blk.BlockID)
		}
	}
	rows, lo, hi := grid(pts, func(at []int) string {
		own := make([]int, len(at))
		for i, k := range at {
			own[i] = ids[k]
		}
		return cell(own)
	})
	fmt.Fprintf(b, "array %s  [%d:%d, %d:%d]%s\n%s", dp.Array, lo[0], hi[0], lo[1], hi[1], legend, rows)
}

// ownerGrid shows each element's owning block, or its copy count when
// duplicated.
func ownerGrid(b *strings.Builder, dp *partition.DataPartition) {
	dataGrid(b, "  (cells show owning block, '+n' = n copies)", dp, func(ids []int) string {
		switch len(ids) {
		case 0:
			return "   ·"
		case 1:
			return fmt.Sprintf(" %3d", ids[0])
		}
		return fmt.Sprintf("  +%d", len(ids))
	})
}

// dataFigure partitions a nest under a strategy and renders view of the
// data partition of each named array (every array for nil).
func dataFigure(title string, nest *loop.Nest, strat partition.Strategy, arrays []string,
	view func(*strings.Builder, *partition.Result, *partition.DataPartition)) (string, error) {
	res, err := partition.Compute(nest, strat)
	if err != nil {
		return "", err
	}
	if arrays == nil {
		arrays = res.Analysis.Nest.Arrays()
	}
	var b strings.Builder
	b.WriteString(title + "\n\n")
	for _, array := range arrays {
		view(&b, res, res.DataPartition(array))
	}
	return b.String(), nil
}

// iterationFigure partitions a 2-D nest under a strategy and renders
// its iteration partition: each cell shows its block's ID followed by
// mark(result, block, position).
func iterationFigure(title, legend string, nest *loop.Nest, strat partition.Strategy,
	mark func(*partition.Result, *partition.Block, int) string) (string, error) {
	res, err := partition.Compute(nest, strat)
	if err != nil {
		return "", err
	}
	pts := res.Iter.Index.Points
	rows, _, _ := grid(pts, func(at []int) string {
		blk := res.Iter.BlockOf(pts[at[0]])
		return fmt.Sprintf(" %2d%s", blk.ID, mark(res, blk, at[0]))
	})
	return title + "\n\n" + legend + "\n" + rows, nil
}

// baseMark marks a block's base point '*'.
func baseMark(res *partition.Result, blk *partition.Block, pos int) string {
	if slices.Equal(blk.Base, res.Iter.Index.Points[pos]) {
		return "*"
	}
	return " "
}

const baseLegend = "(cells show block ID; '*' marks the block's base point)"

// fig1 shows the data spaces of arrays A, B, C of loop L1 — every
// element some block of its partition references — with their
// data-referenced vectors (Definition 1).
func fig1() (string, error) {
	return dataFigure("Fig. 1 — data spaces and data-referenced vectors, loop L1", loop.L1(), partition.NonDuplicate, nil,
		func(b *strings.Builder, res *partition.Result, dp *partition.DataPartition) {
			dataGrid(b, "", dp, func(ids []int) string {
				if len(ids) == 0 {
					return " ·"
				}
				return " *"
			})
			var parts []string
			for _, r := range res.Analysis.DataReferencedVectors(dp.Array) {
				parts = append(parts, fmt.Sprintf("(%d,%d)", r[0], r[1]))
			}
			if len(parts) == 0 {
				parts = []string{"none (single reference)"}
			}
			fmt.Fprintf(b, "data-referenced vectors: %s\n\n", strings.Join(parts, ", "))
		})
}

// fig2 shows the data blocks of arrays A, B, C of loop L1 under the
// non-duplicate partition (seven blocks per array).
func fig2() (string, error) {
	return dataFigure("Fig. 2 — data partition of loop L1 along (1,1), 7 blocks per array", loop.L1(), partition.NonDuplicate, nil,
		func(b *strings.Builder, _ *partition.Result, dp *partition.DataPartition) {
			ownerGrid(b, dp)
			b.WriteString("\n")
		})
}

// fig3 shows the iteration partition of loop L1 (seven diagonal blocks).
func fig3() (string, error) {
	return iterationFigure("Fig. 3 — iteration partition of loop L1 by Ψ = span{(1,1)}", baseLegend, loop.L1(), partition.NonDuplicate, baseMark)
}

// fig4 shows the duplicate-data partition of arrays A and B of loop L2:
// one block per iteration, with the shared anti-diagonal elements of A
// replicated.
func fig4() (string, error) {
	return dataFigure("Fig. 4 — data partition of loop L2 with duplicate data (16 blocks)", loop.L2(), partition.Duplicate, []string{"A", "B"},
		func(b *strings.Builder, _ *partition.Result, dp *partition.DataPartition) {
			ownerGrid(b, dp)
			fmt.Fprintf(b, "copy factor: %.2f\n\n", dp.CopyFactor)
		})
}

// fig5 shows the iteration partition of loop L2 under the duplicate
// strategy: 16 singleton blocks.
func fig5() (string, error) {
	return iterationFigure("Fig. 5 — iteration partition of loop L2 by Ψʳ = span{} (fully parallel)", baseLegend, loop.L2(), partition.Duplicate, baseMark)
}

// fig6 is the general data reference graph template of Definition 6: the
// four structural connection rules between write vertices w_i and read
// vertices r_j.
func fig6() (string, error) {
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
`, nil
}

// fig7 is the data reference graph of array A in loop L3, computed from
// the dependence analysis. (Vertex numbering is canonical statement
// order: our r1 is S1's read A[i-1,j-1] — the paper labels that one r2.)
func fig7() (string, error) {
	a, err := deps.Analyze(loop.L3())
	if err != nil {
		return "", err
	}
	return "Fig. 7 — data reference graph G^A of array A for loop L3\n\n" +
		a.ReferenceGraph("A").String(), nil
}

// fig8 shows the partition of array A of loop L3 under the minimal
// reduced space Ψ^minʳ = span{(1,0)} (four column blocks, restricted to
// non-redundant computations).
func fig8() (string, error) {
	return dataFigure("Fig. 8 — data partition of array A of loop L3 by Ψ^minʳ = span{(1,0)}", loop.L3(), partition.MinimalDuplicate, []string{"A"},
		func(b *strings.Builder, _ *partition.Result, dp *partition.DataPartition) { ownerGrid(b, dp) })
}

// fig9 shows the iteration partition of loop L3 under Ψ^minʳ: solid
// points run both statements, dotted points only S2 (S1 is redundant
// there).
func fig9() (string, error) {
	return iterationFigure("Fig. 9 — iteration partition of loop L3 by Ψ^minʳ = span{(1,0)}",
		"(cells show block ID; '*' = S1 and S2 both execute, 'o' = only S2, S1 redundant)", loop.L3(), partition.MinimalDuplicate,
		func(res *partition.Result, _ *partition.Block, pos int) string {
			if res.Redundant.RedundantAt(0, pos) {
				return "o"
			}
			return "*"
		})
}

// l4Prime is Section IV's worked example: loop L4 transformed along
// Ψ = span{(1,−1,1)} with the paper's basis, cyclically assigned to a
// 2×2 grid.
func l4Prime() (*assign.Assignment, error) {
	psi := space.Span(3, []int64{1, -1, 1})
	tr, err := transform.TransformWithBasis(loop.L4(), psi, [][]int64{{1, 1, 0}, {-1, 0, 1}})
	if err != nil {
		return nil, err
	}
	return assign.Assign(tr, 4), nil
}

// blockedWorkloads is the iteration count per processor when each grid
// dimension takes a contiguous range of the forall space instead of
// Section IV's cyclic residues.
func blockedWorkloads(a *assign.Assignment) []int64 {
	pts, sizes := a.Tr.ForallPoints(), a.Tr.BlockSizes()
	loads := make([]int64, a.NumProcessors())
	lo, hi := bbox(pts)
	for i, f := range pts {
		id := 0
		for d, n := range a.Dims {
			id = id*n + int((f[d]-lo[d])*int64(n)/(hi[d]-lo[d]+1))
		}
		loads[id] += sizes[i]
	}
	return loads
}

// fig10 shows the processor assignment of the transformed loop L4′ on a
// 2×2 grid: the forall plane with per-block iteration counts and owner
// processors, the resulting per-processor workloads (16 each), and the
// blocked mapping's workloads for contrast.
func fig10() (string, error) {
	a, err := l4Prime()
	if err != nil {
		return "", err
	}
	pts, sizes := a.Tr.ForallPoints(), a.Tr.BlockSizes()
	rows, lo, hi := grid(pts, func(at []int) string {
		if len(at) == 0 {
			return "     ·"
		}
		return fmt.Sprintf(" %2d@P%d", sizes[at[0]], a.OwnerID(pts[at[0]]))
	})
	var b strings.Builder
	b.WriteString("Fig. 10 — processor assignment of loop L4′ on a 2×2 grid\n\n")
	fmt.Fprintf(&b, "(rows: i1' = %d..%d; cols: i2' = %d..%d; cells: iterations@PE)\n%s", lo[0], hi[0], lo[1], hi[1], rows)
	b.WriteString("\nper-processor workloads:\n")
	for id, l := range a.Workloads() {
		fmt.Fprintf(&b, "  PE%d: %d iterations\n", id, l)
	}
	b.WriteString("blocked (contiguous ranges) instead:")
	for id, l := range blockedWorkloads(a) {
		fmt.Fprintf(&b, " PE%d %d", id, l)
	}
	b.WriteString(" iterations\n")
	return b.String(), nil
}
