package report

// The paper's closing claim: communication-free partitions "prevent the
// cache-thrashing problem in shared memory multiprocessor systems". On
// such a machine every processor has a private cache, and a cache line
// moves between caches exactly when one processor writes an element
// another one touches. So the claim is a count over the partition: the
// elements written on one node and touched on another, under the
// partition's own placement and under round-robin iteration scheduling.

import (
	"fmt"
	"strings"

	"commfree/internal/assign"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// thrashProcessors is the processor count of the thrashing section.
const thrashProcessors = 4

// thrashRow is one loop and strategy of the thrashing section: the
// shared writes under the partition's placement and under round-robin.
type thrashRow struct {
	loop                  string
	nest                  *loop.Nest
	strat                 partition.Strategy
	blocks                int
	partition, roundRobin int
}

// thrashing counts shared writes for the claim's loops at p processors.
func thrashing(p int) ([]thrashRow, error) {
	var rows []thrashRow
	for _, r := range []thrashRow{
		{loop: "L1", nest: loop.L1(), strat: partition.NonDuplicate},
		{loop: "L4", nest: loop.L4(), strat: partition.NonDuplicate},
		{loop: "L5(4)", nest: loop.L5(4), strat: partition.Duplicate},
		{loop: "L2", nest: loop.L2(), strat: partition.Duplicate},
		{loop: "L2", nest: loop.L2(), strat: partition.NonDuplicate},
	} {
		res, err := partition.Compute(r.nest, r.strat)
		if err != nil {
			return nil, err
		}
		ix := res.Iter.Index
		r.blocks = res.Iter.NumBlocks()
		r.partition, r.roundRobin = sharedWrites(ix, placed(res, p)), sharedWrites(ix, roundRobin(len(ix.Points), p))
		rows = append(rows, r)
	}
	return rows, nil
}

// placed is the node of every iteration, by position, when each block
// runs where Section IV's cyclic placement (assign's Blocks) puts it.
func placed(res *partition.Result, p int) []int {
	blockNode, _ := assign.Place(res.Iter.Q, p).Blocks(res.Iter)
	node := make([]int, len(res.Iter.Index.Points))
	for bi, blk := range res.Iter.Blocks {
		for _, pos := range blk.Pos {
			node[pos] = blockNode[bi]
		}
	}
	return node
}

// roundRobin deals n iterations to p nodes in lexicographic order.
func roundRobin(n, p int) []int {
	node := make([]int, n)
	for pos := range node {
		node[pos] = pos % p
	}
	return node
}

// sharedWrites counts the elements some node writes and another node
// touches when iteration pos runs on node[pos]. It reads the index's
// rows of dense element ids; every access counts.
func sharedWrites(ix *loop.Index, node []int) int {
	const written, shared = 1, 2
	first := make([]int, ix.NumElems()) // 1 + the first node to touch the element
	flags := make([]uint8, ix.NumElems())
	for pos := range ix.Points {
		n := node[pos] + 1
		for s, e := range ix.Row(pos) {
			if first[e] == 0 {
				first[e] = n
			} else if first[e] != n {
				flags[e] |= shared
			}
			if ix.Slots[s].Write {
				flags[e] |= written
			}
		}
	}
	count := 0
	for _, f := range flags {
		if f == written|shared {
			count++
		}
	}
	return count
}

func thrashingSection(b *strings.Builder, _ machine.CostModel) error {
	rows, err := thrashing(thrashProcessors)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "## Cache thrashing (shared memory, p = %d)\n\n", thrashProcessors)
	b.WriteString("Elements written on one processor and touched on another — on a shared-memory " +
		"machine with private caches, the elements whose lines move between caches. " +
		"*partition* runs each block where Section IV's cyclic placement puts it; " +
		"*round-robin* deals iterations to processors in lexicographic order.\n\n")
	b.WriteString("| loop | strategy | blocks | partition | round-robin |\n|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(b, "| %s | %s | %d | %d | %d |\n", r.loop, r.strat, r.blocks, r.partition, r.roundRobin)
	}
	b.WriteString("\nUnder the duplicate strategy blocks write private copies; on shared memory " +
		"those copies are one element, so L2's duplicate partition keeps shared writes.\n\n")
	return nil
}
