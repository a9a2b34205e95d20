package loop_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
)

// sweepNests is the shape sweep the footprint and index tests share: L1–L5,
// the corpus, the edge shapes named in extra plus four fixed ones
// (negative and strided subscripts, a singleton, an empty and a
// triangular level), and generated nests.
func sweepNests(t *testing.T, generated int, extra map[string]string) map[string]*loop.Nest {
	t.Helper()
	nests := map[string]*loop.Nest{
		"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(5),
	}
	for i, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil {
			nests[fmt.Sprint("corpus ", i)] = nest
		}
	}
	shapes := map[string]string{
		"negative and strided": "for i = 2 to 7\n for j = -3 to 4\n  A[-2i + 3j, 3i - 1] = A[-2i + 3j - 3, 3i - 4] + B[-j, 5i + 2j]\n end\nend",
		"singleton level":      "for i = 1 to 6\n for j = 3 to 3\n  for k = 0 to 2\n   A[i - 2j, -k] = B[j, i + k]\n  end\n end\nend",
		"empty level":          "for i = 1 to 6\n for j = 5 to 4\n  A[i, j] = B[j, i]\n end\nend",
		"triangular":           "for i = 1 to 6\n for j = i to 6\n  A[i, -j] = A[i - 1, 1 - j] + 1\n end\nend",
	}
	for name, src := range extra {
		shapes[name] = src
	}
	for name, src := range shapes {
		nest, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nests[name] = nest
	}
	rnd := rand.New(rand.NewSource(17))
	for i := 0; i < generated; i++ {
		cfg := loopgen.DefaultConfig()
		cfg.MaxCoeff, cfg.MaxOffset = 3, 4
		nest := loopgen.Generate(rnd, cfg)
		if i%2 == 1 {
			nest = loopgen.GenerateUsage(rnd, cfg)
		}
		nests[fmt.Sprint("loopgen ", i)] = nest
	}
	return nests
}

// TestClosedFormFootprintIsTheWalk: on every nest, the closed-form
// footprint of a constant-bound nest deep-equals the one the walk
// finds — boxes, count, and every composed rank function.
func TestClosedFormFootprintIsTheWalk(t *testing.T) {
	nests := sweepNests(t, 300, nil)
	for name, nest := range nests {
		got, err := nest.Footprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := nest.WalkedFootprint()
		if err != nil {
			t.Fatalf("%s: walked: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: closed form\n%+v\nwalk\n%+v\n%s", name, got, want, nest)
		}
	}
	if fp, _ := nests["empty level"].Footprint(); fp.Count != 0 || fp.Iter.Volume != 0 {
		t.Errorf("empty level: count %d, volume %d, want 0", fp.Count, fp.Iter.Volume)
	}
}

// TestIndexIdsDoNotDependOnTheLookup: an Index numbered through
// rank-indexed tables deep-equals one numbered through maps — every
// element id, and per id its slot and rank — and NewIndex, which picks
// per array, deep-equals both. The extra shapes are the ones the map path
// exists for: a rank-deficient subscript whose box is N² for N accesses.
func TestIndexIdsDoNotDependOnTheLookup(t *testing.T) {
	nests := sweepNests(t, 200, map[string]string{
		"diagonal":         "for i = 1 to 40\n A[i, i] = B[i, i] + 1\nend",
		"strided diagonal": "for i = -6 to 9\n A[3i, -3i + 2] = A[3i - 3, -3i + 5] * 2\nend",
	})
	for name, nest := range nests {
		byTable, err := loop.NewIndexBy(nest, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		byMap, err := loop.NewIndexBy(nest, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		auto, err := loop.NewIndex(nest)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(byTable, byMap) || !reflect.DeepEqual(auto, byMap) {
			t.Errorf("%s: element ids depend on the lookup\n%s", name, nest)
		}
	}
}

// TestFootprintOverflowIsTyped: a box whose volume or whose element
// subscripts leave int64 is refused with a RankOverflowError, at once —
// the closed form never walks the 2⁸⁰ iterations.
func TestFootprintOverflowIsTyped(t *testing.T) {
	ref := func(array string, h, off int64) loop.Ref {
		return loop.Ref{Array: array, H: [][]int64{{h, 0}}, Offset: []int64{off}}
	}
	nest := func(extent int64, h int64) *loop.Nest {
		return &loop.Nest{
			Levels: []loop.Level{
				{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, extent)},
				{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, extent)},
			},
			Body: []*loop.Statement{{Write: ref("A", h, 0), Reads: []loop.Ref{ref("B", 1, 0)}}},
		}
	}
	for _, c := range []struct {
		name string
		nest *loop.Nest
		what string
	}{
		{"2^80 iterations", nest(1<<40, 1), "iteration box"},
		{"subscript 2^62·i", nest(4, 1<<62), "array A footprint"},
		{"subscript −2^62·i", nest(4, -1<<62), "array A footprint"},
	} {
		_, err := c.nest.Footprint()
		var over *loop.RankOverflowError
		if !errors.As(err, &over) || over.What != c.what {
			t.Errorf("%s: err = %v, want a RankOverflowError on the %s", c.name, err, c.what)
		}
	}
}
