// Package mars computes usage-based partitions of a loop nest's
// dataflow, after Ferry et al.'s Maximal Atomic irRedundant Sets
// (arXiv:2211.15933) and their irredundant dataflow decomposition
// (arXiv:2312.03646). Where the paper's Section III.C eliminates
// redundancy by dropping overwritten writes and then partitions by
// affine reference spaces, MARS partitions by *usage*: the iteration
// space splits into the finest blocks closed under the flow of
// non-redundant values — no affine coset structure is assumed or
// produced. Of Ferry et al.'s construction only these flow-closed
// blocks are used; their atomic sets (producers grouped by consumer
// signature) would refine a block without changing where it runs.
//
// The result is emitted through the existing partition.Result shape as
// the fifth strategy (partition.Mars): Ψ is the zero space (the
// transform is the identity, so bijectivity is trivial) and the blocks
// are the flow groups (partition.FlowGroups, which partition.Materialize
// installs for the strategy). Because the blocks are flow closures,
// every read finds its most recent writer in its own block — exactly
// the dupOK invariant of partition.VerifyCommunicationFree — and the
// duplicate-data execution paths (private copies, last-writer commit)
// run them unchanged.
package mars

import (
	"commfree/internal/loop"
	"commfree/internal/partition"
)

// Compute runs the MARS pipeline on a validated nest and emits the
// result in the common partition.Result shape with Strategy ==
// partition.Mars: the blocks are the flow groups.
func Compute(nest *loop.Nest) (*partition.Result, error) {
	return partition.Compute(nest, partition.Mars)
}
