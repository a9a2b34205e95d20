package layout

import (
	"strings"
	"testing"

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
	// Slots are dense 0..Count-1 per block.
	for _, bl := range l.Blocks {
		seen := make([]bool, bl.Count)
		for _, s := range bl.Index {
			if s < 0 || s >= bl.Count {
				t.Fatalf("slot %d out of range %d", s, bl.Count)
			}
			if seen[s] {
				t.Fatalf("slot %d assigned twice", s)
			}
			seen[s] = true
		}
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

func TestSlotLookup(t *testing.T) {
	l := build(t, loop.L1(), partition.NonDuplicate, "B")
	// B[j, i+1] at iteration (1,1) = B[1,2]; its block is the one holding
	// that element.
	found := false
	for _, bl := range l.Blocks {
		if _, ok := l.Slot(bl.BlockID, []int64{1, 2}); ok {
			found = true
		}
	}
	if !found {
		t.Error("B[1,2] not resident anywhere")
	}
	if _, ok := l.Slot(999, []int64{1, 2}); ok {
		t.Error("bogus block had the element")
	}
	if _, ok := l.Slot(l.Blocks[0].BlockID, []int64{99, 99}); ok {
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
