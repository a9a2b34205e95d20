package assign_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
	"commfree/internal/transform"
)

// TestPlacementIsAFunctionOfQ pins what lets the executors place blocks
// without a loop transformation: the partition's complement basis is the
// transformation's Q, so the Placement built from res.Iter.Q puts every
// block on the owner of its base point's forall point under T, with the
// same processor count as the Assignment derived through Fourier–Motzkin.
// An assignment of the loop transformed for the partition reports the
// placement's loads; so does one of the walked loop, one coset block per
// forall point, wherever the partition's blocks are cosets (Ψ ≠ 0).
func TestPlacementIsAFunctionOfQ(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(1993))
	for i := 0; i < 300; i++ {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	strategies := []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
		partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Mars}
	for _, nest := range nests {
		pc, err := partition.NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("analysis of\n%s: %v", lang.Format(nest), err)
		}
		for _, strat := range strategies {
			res, err := pc.Compute(strat, nil, 0)
			if err != nil {
				t.Fatalf("%s partition of\n%s: %v", strat, lang.Format(nest), err)
			}
			tr, err := transform.Transform(nest, res.Psi)
			if err != nil {
				t.Fatalf("%s transform of\n%s: %v", strat, lang.Format(nest), err)
			}
			if !reflect.DeepEqual(tr.Q, res.Iter.Q) {
				t.Fatalf("%s: transform Q = %v, partition Q = %v on\n%s", strat, tr.Q, res.Iter.Q, lang.Format(nest))
			}
			view, err := transform.OfPartition(res.Iter)
			if err != nil {
				t.Fatalf("%s transform of the partition of\n%s: %v", strat, lang.Format(nest), err)
			}
			for _, p := range []int{1, 4, 16} {
				asg, place := assign.Assign(tr, p), assign.Place(res.Iter.Q, p)
				if asg.NumProcessors() != place.NumProcessors() {
					t.Fatalf("%s p=%d: %d processors via transform, %d via Q", strat, p, asg.NumProcessors(), place.NumProcessors())
				}
				node, loads := place.Blocks(res.Iter)
				points, owners := tr.ForallPoints(), asg.Info().Blocks
				for bi, b := range res.Iter.Blocks {
					f := tr.NewPoint(b.Base)[:tr.K]
					at, ok := slices.BinarySearchFunc(points, f, slices.Compare[[]int64])
					if !ok {
						t.Fatalf("%s: block %d's forall point %v under T is not the walked loop's on\n%s", strat, b.ID, f, lang.Format(nest))
					}
					if node[bi] != owners[at].Processor {
						t.Fatalf("%s p=%d: block %d at %v placed on %d, its forall point %v on %d on\n%s",
							strat, p, b.ID, b.Base, node[bi], f, owners[at].Processor, lang.Format(nest))
					}
				}
				if got := assign.Assign(view, p).Workloads(); !reflect.DeepEqual(got, loads) {
					t.Fatalf("%s p=%d: assignment of the partition's loop reports %v, the placement puts %v on\n%s", strat, p, got, loads, lang.Format(nest))
				}
				if got := asg.Workloads(); !res.Psi.IsZero() && !reflect.DeepEqual(got, loads) {
					t.Fatalf("%s p=%d: assignment of the walked loop reports %v, the placement puts %v on\n%s", strat, p, got, loads, lang.Format(nest))
				}
			}
		}
	}
}
