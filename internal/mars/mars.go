// Package mars computes usage-based atomic partitions of a loop nest's
// dataflow, after Ferry et al.'s Maximal Atomic irRedundant Sets
// (arXiv:2211.15933) and their irredundant dataflow decomposition
// (arXiv:2312.03646). Where the paper's Section III.C eliminates
// redundancy by dropping overwritten writes and then partitions by
// affine reference spaces, MARS partitions by *usage*: computations
// whose produced values have identical consumer sets form one maximal
// atomic irredundant set, and the iteration space splits into the
// finest blocks closed under value flow — no affine coset structure is
// assumed or produced.
//
// The result is emitted through the existing partition.Result shape as
// the fifth strategy (partition.Mars): Ψ is the zero space (the
// transform is the identity, so bijectivity is trivial) and the blocks
// are the flow groups (partition.FlowGroups, which partition.Materialize
// installs for the strategy — this package adds the atomic-set view of
// the same dataflow). Because the blocks are flow closures, every read finds its most
// recent writer in its own block — exactly the dupOK invariant of
// partition.VerifyCommunicationFree — and the duplicate-data execution
// paths (private copies, last-writer commit) run them unchanged.
package mars

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"commfree/internal/deps"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/redundant"
)

// Computation identifies one statement instance S_stmt(ī).
type Computation struct {
	Stmt int
	Iter []int64
}

func (c Computation) String() string {
	return fmt.Sprintf("S%d%v", c.Stmt+1, c.Iter)
}

// AtomicSet is one maximal atomic irredundant set: the non-redundant
// producers whose values are consumed by exactly the same set of
// computations (and share liveness into the final state).
type AtomicSet struct {
	// Producers are the writes grouped into this set, sorted by
	// iteration (lexicographic) then statement index.
	Producers []Computation
	// Consumers is the shared consumer set: every producer's value is
	// read by exactly these computations and no others.
	Consumers []Computation
	// LiveOut reports whether the produced values survive into the
	// final data state (no later non-redundant write overwrites them).
	LiveOut bool
}

// Decomposition is the usage-based dataflow decomposition of one nest.
type Decomposition struct {
	Nest *loop.Nest
	// Sets are the maximal atomic irredundant sets, sorted by their
	// first producer.
	Sets []*AtomicSet
}

// Decompose computes the usage-based decomposition from the dependence
// analysis and the redundancy oracle. It replays the accesses in exact
// execution order (iterations lexicographic, statements in body order,
// reads before the write), skips redundant computations — their
// accesses are invisible to the irredundant dataflow — and tracks per
// element the write whose value is current: every read until the next
// write consumes it.
func Decompose(a *deps.Analysis, red *redundant.Result) *Decomposition {
	ix := red.Index
	stmts := len(a.Nest.Body)
	dec := &Decomposition{Nest: a.Nest}

	// A computation is numbered position·stmts + stmt, which orders
	// computations by iteration, then statement. producer[e] is the
	// computation whose write to element e is current (−1: initial
	// data); uses collects (producer, consumer) pairs.
	producer := make([]int64, ix.NumElems())
	for e := range producer {
		producer[e] = -1
	}
	type use struct{ prod, cons int64 }
	var uses []use
	var prods []int64
	for pos := range ix.Points {
		row := ix.Row(pos)
		for s := 0; s < stmts; s++ {
			if red.RedundantAt(s, pos) {
				continue
			}
			comp, w := int64(pos*stmts+s), ix.First[s+1]-1
			for _, e := range row[ix.First[s]:w] {
				if p := producer[e]; p >= 0 { // else it reads initial data
					uses = append(uses, use{p, comp})
				}
			}
			producer[row[w]] = comp
			prods = append(prods, comp)
		}
	}

	// A value that reaches the final state (no later write) gets the
	// sentinel consumer "live". Producers are then grouped by identical
	// consumer lists: sort the uses by producer (consumers stay
	// ascending), then the producers by list.
	const live = math.MaxInt64
	for _, p := range producer {
		if p >= 0 {
			uses = append(uses, use{p, live})
		}
	}
	slices.SortStableFunc(uses, func(x, y use) int { return cmp.Compare(x.prod, y.prod) })
	consumers := make(map[int64][]use, len(prods))
	for lo := 0; lo < len(uses); {
		hi := lo
		for hi < len(uses) && uses[hi].prod == uses[lo].prod {
			hi++
		}
		consumers[uses[lo].prod] = slices.Compact(uses[lo:hi:hi])
		lo = hi
	}
	signature := func(x, y int64) int {
		return slices.CompareFunc(consumers[x], consumers[y], func(a, b use) int { return cmp.Compare(a.cons, b.cons) })
	}
	slices.SortStableFunc(prods, signature)
	computation := func(c int64) Computation {
		return Computation{Stmt: int(c % int64(stmts)), Iter: ix.Points[c/int64(stmts)]}
	}
	for i, p := range prods {
		if i == 0 || signature(prods[i-1], p) != 0 {
			set := &AtomicSet{}
			for _, u := range consumers[p] {
				if set.LiveOut = u.cons == live; !set.LiveOut {
					set.Consumers = append(set.Consumers, computation(u.cons))
				}
			}
			dec.Sets = append(dec.Sets, set)
		}
		set := dec.Sets[len(dec.Sets)-1]
		set.Producers = append(set.Producers, computation(p))
	}
	slices.SortFunc(dec.Sets, func(x, y *AtomicSet) int {
		return compareComputations(x.Producers[0], y.Producers[0])
	})
	return dec
}

func compareComputations(a, b Computation) int {
	if c := slices.Compare(a.Iter, b.Iter); c != 0 {
		return c
	}
	return a.Stmt - b.Stmt
}

// Compute runs the MARS pipeline on a validated nest and emits the
// result in the common partition.Result shape with Strategy ==
// partition.Mars. The blocks are the flow groups alone; the atomic sets
// are Decompose's, for callers that want the decomposition.
func Compute(nest *loop.Nest) (*partition.Result, error) {
	return partition.Compute(nest, partition.Mars)
}
