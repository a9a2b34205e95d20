// Package layout computes per-processor local memory layouts for the
// partitioned data blocks — the "allocate the data blocks to local
// memory" step of the paper made concrete. Each block's elements receive
// dense local addresses, and the package quantifies what the paper's
// allocation buys: the footprint of block allocation versus replicating
// whole arrays (the naive alternative the L5′/L5″ analysis contrasts)
// and versus rectangular bounding-box allocation.
package layout

import (
	"fmt"
	"slices"

	"commfree/internal/partition"
)

// BlockLayout is the local layout of one data block.
type BlockLayout struct {
	BlockID int
	// Count is the number of resident elements. They get the dense local
	// slots 0..Count-1 in lexicographic element order — the order the
	// partition lists them in, so a slot is a position.
	Count int
	// BoxCells is the volume of the elements' bounding box — what a
	// rectangular local allocation would reserve.
	BoxCells int64

	elems [][]int64 // the data block's elements, shared with the partition
}

// Layout is the local layout of one array across all blocks.
type Layout struct {
	Array  string
	Blocks []*BlockLayout
	// TotalElements is Σ block Count (counting replicas).
	TotalElements int
	// UniqueElements is the global number of distinct elements.
	UniqueElements int
	// TotalBoxCells is Σ block BoxCells.
	TotalBoxCells int64
}

// Build computes the layout of a data partition.
func Build(dp *partition.DataPartition) *Layout {
	l := &Layout{Array: dp.Array, UniqueElements: dp.Unique}
	for _, db := range dp.Blocks {
		bl := &BlockLayout{BlockID: db.BlockID, Count: len(db.Elements), elems: db.Elements}
		if bl.Count > 0 {
			lo, hi := slices.Clone(db.Elements[0]), slices.Clone(db.Elements[0])
			for _, e := range db.Elements[1:] {
				for d := range e {
					lo[d], hi[d] = min(lo[d], e[d]), max(hi[d], e[d])
				}
			}
			bl.BoxCells = 1
			for d := range lo {
				bl.BoxCells *= hi[d] - lo[d] + 1
			}
		}
		l.Blocks = append(l.Blocks, bl)
		l.TotalElements += bl.Count
		l.TotalBoxCells += bl.BoxCells
	}
	return l
}

// ReplicationFactor is total resident elements / unique elements
// (1.0 = no duplication).
func (l *Layout) ReplicationFactor() float64 {
	if l.UniqueElements == 0 {
		return 0
	}
	return float64(l.TotalElements) / float64(l.UniqueElements)
}

// SavingsVsFullReplication compares block allocation against giving every
// block the whole array: 1 − total/(unique·blocks). 0 means no savings
// (everything replicated everywhere), values near 1 mean each block holds
// a small slice.
func (l *Layout) SavingsVsFullReplication() float64 {
	denom := float64(l.UniqueElements) * float64(len(l.Blocks))
	if denom == 0 {
		return 0
	}
	return 1 - float64(l.TotalElements)/denom
}

// PackingEfficiency is total elements / total bounding-box cells: how much
// a rectangular allocation would waste on skewed blocks (1.0 = perfectly
// rectangular blocks).
func (l *Layout) PackingEfficiency() float64 {
	if l.TotalBoxCells == 0 {
		return 0
	}
	return float64(l.TotalElements) / float64(l.TotalBoxCells)
}

// Summary renders per-array layout statistics.
func (l *Layout) Summary() string {
	return fmt.Sprintf("array %s: %d blocks, %d resident (%d unique, ×%.2f), box efficiency %.2f, savings vs full replication %.2f",
		l.Array, len(l.Blocks), l.TotalElements, l.UniqueElements,
		l.ReplicationFactor(), l.PackingEfficiency(), l.SavingsVsFullReplication())
}

// BuildAll lays out every array of a partitioning result, sorted by name.
func BuildAll(res *partition.Result) []*Layout {
	names := res.Iter.Index.Arrays // sorted
	out := make([]*Layout, 0, len(names))
	for _, a := range names {
		out = append(out, Build(res.DataPartition(a)))
	}
	return out
}
