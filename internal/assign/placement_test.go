package assign_test

import (
	"math/rand"
	"reflect"
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
// transformation's Q, so the Placement built from res.Iter.Q names the
// same processor for every block base — as the owner of its forall point
// under T and by OwnerOf — and uses the same processor count, as the
// Assignment derived through Fourier–Motzkin.
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
			for _, p := range []int{1, 4, 16} {
				asg, place := assign.Assign(tr, p), assign.Place(res.Iter.Q, p)
				if asg.NumProcessors() != place.NumProcessors() {
					t.Fatalf("%s p=%d: %d processors via transform, %d via Q", strat, p, asg.NumProcessors(), place.NumProcessors())
				}
				for _, b := range res.Iter.Blocks {
					got := place.OwnerOf(b.Base)
					if viaT, direct := asg.OwnerID(tr.NewPoint(b.Base)[:tr.K]), asg.OwnerOf(b.Base); got != viaT || got != direct {
						t.Fatalf("%s p=%d: block %d at %v placed on %d, assignment says %d (forall point) and %d (base) on\n%s",
							strat, p, b.ID, b.Base, got, viaT, direct, lang.Format(nest))
					}
				}
			}
		}
	}
}
