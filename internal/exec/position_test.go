package exec

// Below the partition an iteration is its position in the Index. These
// tests tie that coordinate back to the points it stands for: the
// program of a partition is laid out on the partition's own footprint,
// and the computations the dense engines skip by (statement, position)
// are exactly the ones the redundancy oracle names by (statement, point).

import (
	"testing"

	"commfree/internal/exec/kernel"
	"commfree/internal/lang"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// TestProgramOfAPartitionSharesItsFootprint builds the program of an
// oracle-less (duplicate) partition the way the service does and checks
// it was lowered from res.Iter.Index.Footprint itself: the statements'
// read slots alias the footprint's slot table and the layouts its
// rankers, which no fresh walk of the nest could produce.
func TestProgramOfAPartitionSharesItsFootprint(t *testing.T) {
	nest := lang.MustParse("for i = 1 to 4\n  for j = 1 to 4\n    C[i,j] = A[i,j] + B[j,i-1]\n  end\nend\n")
	res, err := partition.Compute(nest, partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redundant != nil {
		t.Fatal("duplicate partition carries a redundancy oracle")
	}
	prog, err := CompilePartition(res)
	if err != nil {
		t.Fatal(err)
	}
	fp := res.Iter.Index.Footprint
	if &prog.stmts[0].reads[0] != &fp.Slots[0] {
		t.Error("program slots are not the partition footprint's")
	}
	for a, lay := range prog.arrays {
		if &lay.Lo[0] != &fp.Elems[a].Lo[0] {
			t.Errorf("layout of %s is not ranked by the partition footprint", lay.name)
		}
	}
	// The contrast: without a partition or oracle CompileNest has to walk.
	fresh, err := CompileNest(nest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &fresh.stmts[0].reads[0] == &fp.Slots[0] {
		t.Error("CompileNest(nest, nil) aliased a footprint it was never given")
	}
	if err := Equal(fresh.Sequential(), prog.Sequential()); err != nil {
		t.Errorf("walked and shared footprints disagree: %v", err)
	}
}

// planSkips reads off the lowered plan whether the kernel skips statement
// si at iteration t of block bi: single-statement plans cut skipped
// iterations out of the segment bounds, multi-statement plans mask them.
func planSkips(pl *kernel.Plan, bi, si, t int) bool {
	if !pl.Multi {
		for _, sg := range pl.Segs[pl.BlockSegs[bi][0]:pl.BlockSegs[bi][1]] {
			if int(sg.T0) <= t && t < int(sg.T0+sg.N) {
				return false
			}
		}
		return true
	}
	for _, row := range pl.Rows[pl.BlockRows[bi][0]:pl.BlockRows[bi][1]] {
		if rt := t - int(row.T0); rt >= 0 && rt < int(row.N) {
			if row.MBase < 0 {
				return false
			}
			mwords := (int(row.N) + 63) / 64
			return pl.Masks[int(row.MBase)+si*mwords+rt>>6]&(1<<uint(rt&63)) != 0
		}
	}
	return true // no row covers t: nothing runs there
}

// TestSkipsByPositionAreRedundantByPoint: on strided, negative-subscript
// nests with partial redundancy — two statements (masked rows) and one
// (split segments) — Program.Sequential's walk and the kernel's lowered
// plan skip exactly the computations red.IsRedundant(stmt, point) names.
func TestSkipsByPositionAreRedundantByPoint(t *testing.T) {
	// Minimal non-duplicate blocks run along the overwriting direction, so
	// redundancy varies inside every block.
	cases := []struct{ name, src string }{
		// S2's write is overwritten by S1 one i later, except on the last i.
		{"two_statements", "for i = 1 to 5\n  for j = 1 to 4\n    A[2i, 2-j] = B[i, j] * 3\n    A[2i+2, 2-j] = A[2i, 2-j] + C[j-6]\n  end\nend\n"},
		// Every j rewrites A[3i, 1-i]; only the last one survives.
		{"one_statement", "for i = 1 to 4\n  for j = 1 to 5\n    A[3i, 1-i] = B[2j, i-j]\n  end\nend\n"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nest := lang.MustParse(tc.src)
			res, err := partition.Compute(nest, partition.MinimalNonDuplicate)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iter.MaxBlockSize() < 4 {
				t.Fatalf("largest block has %d iterations: no run to mask or split", res.Iter.MaxBlockSize())
			}
			red, pts := res.Redundant, res.Iter.Index.Points
			if n, all := red.NumRedundant(), len(pts)*len(nest.Body); n == 0 || n == all {
				t.Fatalf("%d of %d computations redundant: the nest does not discriminate", n, all)
			}
			prog, err := CompilePartition(res)
			if err != nil {
				t.Fatal(err)
			}

			// Program.Sequential counts positions along Nest.Walk.
			pos := 0
			nest.Walk(func(it []int64) bool {
				for si := range nest.Body {
					if got, want := prog.isRedundant(si, pos), red.IsRedundant(si, it); got != want {
						t.Errorf("sequential: S%d at %v (position %d) skipped=%v, redundant by point=%v", si+1, it, pos, got, want)
					}
				}
				pos++
				return true
			})
			want := Sequential(nest, nil)
			if err := Equal(prog.Sequential(), want); err != nil {
				t.Errorf("dense sequential state: %v", err)
			}

			kern, err := prog.Specialize(res, 4)
			if err != nil {
				t.Fatal(err)
			}
			for bi, b := range res.Iter.Blocks {
				for tt, p := range b.Pos {
					for si := range nest.Body {
						if got, want := planSkips(kern.plan, bi, si, tt), red.IsRedundant(si, pts[p]); got != want {
							t.Errorf("kernel: S%d at %v (block %d iteration %d) skipped=%v, redundant by point=%v", si+1, pts[p], b.ID, tt, got, want)
						}
					}
				}
			}
			rep, err := kern.Run(machine.Transputer(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Equal(rep.Final, want); err != nil {
				t.Errorf("kernel state: %v", err)
			}
		})
	}
}
