package transform

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
	"commfree/internal/space"
)

// TestForallSpaceIsTheIterationPartition checks the one enumeration of a
// Transformed against the partition it transforms, on the corpus, L1–L5
// and 300 generated nests under every coset strategy: the forall points
// are the blocks' Q·b̄ in lexicographic order — as enumerated, nothing is
// sorted afterwards — and each point's size is its block's.
func TestForallSpaceIsTheIterationPartition(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	type point struct {
		forall []int64
		size   int64
	}
	for _, nest := range nests {
		pc, err := partition.NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("%v\n%s", err, nest)
		}
		dup := map[string]bool{pc.Index.Arrays[0]: true}
		for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
			partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Selective} {
			res, err := pc.Compute(strat, dup, 0)
			if err != nil {
				t.Fatalf("%s: %v\n%s", strat, err, nest)
			}
			tr, err := Transform(nest, res.Psi)
			if err != nil {
				t.Fatalf("%s: %v\n%s", strat, err, nest)
			}
			want := make([]point, 0, len(res.Iter.Blocks))
			for _, b := range res.Iter.Blocks {
				want = append(want, point{tr.NewPoint(b.Base)[:tr.K], int64(b.Size())})
			}
			slices.SortFunc(want, func(a, b point) int { return slices.Compare(a.forall, b.forall) })
			points, sizes := tr.ForallPoints(), tr.BlockSizes()
			if len(points) != len(want) || len(sizes) != len(want) {
				t.Fatalf("%s: %d forall points with %d sizes, partition has %d blocks\n%s", strat, len(points), len(sizes), len(want), nest)
			}
			for i, w := range want {
				if !slices.Equal(points[i], w.forall) || sizes[i] != w.size {
					t.Fatalf("%s: forall point %d = %v with %d iterations, block says %v with %d\n%s",
						strat, i, points[i], sizes[i], w.forall, w.size, nest)
				}
			}
			if info := tr.Info(); info.NumBlocks != len(want) {
				t.Fatalf("%s: Info counts %d blocks, partition has %d", strat, info.NumBlocks, len(want))
			}
		}
	}
}

// TestForallSpaceIsEnumeratedOnce races 16 first readers of one
// Transformed: all of them see the same, complete enumeration.
func TestForallSpaceIsEnumeratedOnce(t *testing.T) {
	tr := transformPaperL4(t)
	var wg sync.WaitGroup
	points, sizes := make([][][]int64, 16), make([][]int64, 16)
	for g := range points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				points[g], sizes[g] = tr.ForallPoints(), tr.BlockSizes()
			} else {
				sizes[g], points[g] = tr.BlockSizes(), tr.ForallPoints()
			}
		}()
	}
	wg.Wait()
	if len(points[0]) != 37 {
		t.Fatalf("%d forall points, want 37", len(points[0]))
	}
	for g := range points {
		if !reflect.DeepEqual(points[g], points[0]) || !reflect.DeepEqual(sizes[g], sizes[0]) {
			t.Fatalf("reader %d saw %v / %v, reader 0 saw %v / %v", g, points[g], sizes[g], points[0], sizes[0])
		}
	}
}

// TestSequentialLoopHasOneEmptyForallPoint pins the wire form of the
// K = 0 case: the single block's forall point is [], not null.
func TestSequentialLoopHasOneEmptyForallPoint(t *testing.T) {
	tr, err := Transform(loop.L1(), space.Full(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(tr.ForallPoints())
	if err != nil || string(got) != "[[]]" {
		t.Errorf("forall points marshal to %s (%v), want [[]]", got, err)
	}
	if sizes := tr.BlockSizes(); !slices.Equal(sizes, []int64{16}) {
		t.Errorf("block sizes = %v, want [16]", sizes)
	}
}
