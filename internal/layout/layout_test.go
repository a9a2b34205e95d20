package layout

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/partition"
)

func build(t *testing.T, n *loop.Nest, s partition.Strategy, array string) *Layout {
	t.Helper()
	res, err := partition.Compute(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return Build(res.DataPartition(array))
}

func TestL1LayoutNonDuplicate(t *testing.T) {
	l := build(t, loop.L1(), partition.NonDuplicate, "A")
	if len(l.Blocks) != 7 {
		t.Fatalf("blocks = %d", len(l.Blocks))
	}
	if l.ReplicationFactor() != 1.0 {
		t.Errorf("replication = %v, want 1 (non-duplicate)", l.ReplicationFactor())
	}
	// Elements of A actually referenced: writes A[2i,j] (16 points) plus
	// reads A[2i-2,j-1] adds the (0,0) element and others already written.
	if l.UniqueElements != l.TotalElements {
		t.Errorf("unique %d != total %d under non-duplicate", l.UniqueElements, l.TotalElements)
	}
}

// referenceBuild is the layout as it was first written: every element
// keyed by its printed index vector, per block and globally. Build reads
// the same numbers off the partition's sorted element lists.
func referenceBuild(dp *partition.DataPartition) (*Layout, []map[string]int) {
	l := &Layout{Array: dp.Array}
	var slots []map[string]int
	uniq := map[string]bool{}
	for _, db := range dp.Blocks {
		bl, index := &BlockLayout{BlockID: db.BlockID}, map[string]int{}
		var lo, hi []int64
		for slot, e := range db.Elements {
			key := fmt.Sprint(e)
			index[key], uniq[key] = slot, true
			if lo == nil {
				lo, hi = append([]int64(nil), e...), append([]int64(nil), e...)
			}
			for d := range e {
				lo[d], hi[d] = min(lo[d], e[d]), max(hi[d], e[d])
			}
		}
		bl.Count = len(index)
		if lo != nil {
			bl.BoxCells = 1
			for d := range lo {
				bl.BoxCells *= hi[d] - lo[d] + 1
			}
		}
		l.Blocks, slots = append(l.Blocks, bl), append(slots, index)
		l.TotalElements += bl.Count
		l.TotalBoxCells += bl.BoxCells
	}
	l.UniqueElements = len(uniq)
	return l, slots
}

// TestBuildMatchesReference: on the corpus and the paper's loops, under
// all six strategies, Build equals the string-keyed reference field for
// field, and Slot answers what the reference's per-block index held —
// dense slots in element order, absent elements absent.
func TestBuildMatchesReference(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if n, err := lang.Parse(src); err == nil {
			nests = append(nests, n)
		}
	}
	checked := 0
	for ni, n := range nests {
		results := map[string]*partition.Result{}
		for _, s := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
			partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Mars} {
			res, err := partition.Compute(n, s)
			if err != nil {
				continue // a nest the strategy does not apply to
			}
			results[s.String()] = res
		}
		if arrays := n.Arrays(); len(arrays) > 0 {
			if res, err := partition.ComputeSelective(n, map[string]bool{arrays[0]: true}); err == nil {
				results["selective"] = res
			}
		}
		for name, res := range results {
			for _, a := range res.Iter.Index.Arrays {
				dp := res.DataPartition(a)
				got := Build(dp)
				want, slots := referenceBuild(dp)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("nest %d, %s, array %s:\n got %+v\nwant %+v", ni, name, a, got, want)
				}
				for bi, db := range dp.Blocks {
					for _, e := range db.Elements {
						if s, ok := slot(dp, db.BlockID, e); !ok || s != slots[bi][fmt.Sprint(e)] {
							t.Fatalf("nest %d, %s: Slot(%d, %s%v) = %d, %v; want %d", ni, name, db.BlockID, a, e, s, ok, slots[bi][fmt.Sprint(e)])
						}
					}
					if n := len(db.Elements); n > 0 {
						past, before := slices.Clone(db.Elements[n-1]), slices.Clone(db.Elements[0])
						past[len(past)-1]++
						before[len(before)-1]--
						for _, out := range [][]int64{past, before} {
							if _, ok := slot(dp, db.BlockID, out); ok {
								t.Fatalf("nest %d, %s: Slot finds %s%v in block %d, which does not hold it", ni, name, a, out, db.BlockID)
							}
						}
					}
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d layouts compared", checked)
	}
}

func TestL5LayoutSavings(t *testing.T) {
	// L5″ (duplicate): each of the 16 blocks holds one C element's chain,
	// a row of A, a column of B — far less than full replication.
	res, err := partition.Compute(loop.L5(4), partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	layouts := BuildAll(res)
	if len(layouts) != 3 {
		t.Fatalf("layouts = %d", len(layouts))
	}
	for _, l := range layouts {
		if l.SavingsVsFullReplication() <= 0 {
			t.Errorf("array %s: no savings vs full replication (%.2f)", l.Array, l.SavingsVsFullReplication())
		}
	}
	// A is replicated 4× (each row shared by 4 blocks of the same i).
	var la *Layout
	for _, l := range layouts {
		if l.Array == "A" {
			la = l
		}
	}
	if la.ReplicationFactor() != 4.0 {
		t.Errorf("A replication = %v, want 4", la.ReplicationFactor())
	}
}

// slot returns the local address of an element within a block, and
// whether the element is resident there: its position in the block's
// sorted element list.
func slot(dp *partition.DataPartition, blockID int, elem []int64) (int, bool) {
	for _, db := range dp.Blocks {
		if db.BlockID == blockID {
			return slices.BinarySearchFunc(db.Elements, elem, slices.Compare[[]int64])
		}
	}
	return 0, false
}

func TestSlotLookup(t *testing.T) {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	l := res.DataPartition("B")
	// B[j, i+1] at iteration (1,1) = B[1,2]; its block is the one holding
	// that element.
	found := false
	for _, bl := range l.Blocks {
		if _, ok := slot(l, bl.BlockID, []int64{1, 2}); ok {
			found = true
		}
	}
	if !found {
		t.Error("B[1,2] not resident anywhere")
	}
	if _, ok := slot(l, 999, []int64{1, 2}); ok {
		t.Error("bogus block had the element")
	}
	if _, ok := slot(l, l.Blocks[0].BlockID, []int64{99, 99}); ok {
		t.Error("absent element found")
	}
}

func TestPackingEfficiencyDiagonalBlocks(t *testing.T) {
	// L1's diagonal blocks of C are skewed: bounding boxes waste space,
	// so packing efficiency is below 1 but positive.
	l := build(t, loop.L1(), partition.NonDuplicate, "C")
	eff := l.PackingEfficiency()
	if eff <= 0 || eff > 1 {
		t.Errorf("packing efficiency = %v", eff)
	}
	if eff == 1 {
		t.Error("diagonal blocks should not be perfectly rectangular")
	}
}

func TestSummaryRendering(t *testing.T) {
	l := build(t, loop.L1(), partition.NonDuplicate, "A")
	s := l.Summary()
	for _, want := range []string{"array A", "7 blocks", "savings"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
