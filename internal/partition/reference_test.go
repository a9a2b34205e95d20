package partition

// VerifyCommunicationFree and DataPartition against straightforward
// references: string-keyed per-element event lists, kept here only as
// test oracles.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/redundant"
	"commfree/internal/space"
)

// referenceVerify reports whether the partition is communication-free,
// by collecting every element's accesses in execution order first.
func referenceVerify(p *IterationPartition, dupOK bool, red *redundant.Result) bool {
	type access struct {
		isWrite bool
		block   int
	}
	events := map[string][]access{}
	for _, it := range p.Nest.Iterations() {
		b := p.BlockOf(it)
		if b == nil {
			return false
		}
		for si, st := range p.Nest.Body {
			if red != nil && red.IsRedundant(si, it) {
				continue
			}
			for _, rd := range st.Reads {
				k := rd.Array + fmt.Sprint(rd.Index(it))
				events[k] = append(events[k], access{false, b.ID})
			}
			k := st.Write.Array + fmt.Sprint(st.Write.Index(it))
			events[k] = append(events[k], access{true, b.ID})
		}
	}
	for _, evs := range events {
		lastWrite := -1
		for i, e := range evs {
			switch {
			case !dupOK && e.block != evs[0].block:
				return false
			case e.isWrite:
				lastWrite = i
			case dupOK && lastWrite >= 0 && evs[lastWrite].block != e.block:
				return false
			}
		}
	}
	return true
}

// referenceData lists, per block, the sorted distinct elements of one
// array that the block's (non-redundant) computations touch.
func referenceData(p *IterationPartition, array string, red *redundant.Result) [][]string {
	out := make([][]string, len(p.Blocks))
	for bi, b := range p.Blocks {
		elems := map[string][]int64{}
		for _, it := range points(p, b) {
			for si, st := range p.Nest.Body {
				if red != nil && red.IsRedundant(si, it) {
					continue
				}
				for _, r := range append(append([]loop.Ref(nil), st.Reads...), st.Write) {
					if r.Array == array {
						elems[fmt.Sprint(r.Index(it))] = r.Index(it)
					}
				}
			}
		}
		var sorted [][]int64
		for _, e := range elems {
			sorted = append(sorted, e)
		}
		sort.Slice(sorted, func(i, j int) bool { return loop.LexLess(sorted[i], sorted[j]) })
		for _, e := range sorted {
			out[bi] = append(out[bi], fmt.Sprint(e))
		}
	}
	return out
}

func checkNestAgainstReference(t *testing.T, name string, nest *loop.Nest, rnd *rand.Rand) {
	t.Helper()
	c, err := NewContext(nest, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := nest.Depth()
	// The theorems' own spaces (which must verify) and arbitrary ones
	// (most of which must not): the verdicts have to agree either way.
	spaces := []*space.Space{space.Zero(n), space.Full(n)}
	for _, strat := range []Strategy{NonDuplicate, Duplicate, MinimalNonDuplicate, MinimalDuplicate} {
		_, psi, err := c.Spaces(strat, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spaces = append(spaces, psi)
	}
	for i := 0; i < 3; i++ {
		v := make([]int64, n)
		for k := range v {
			v[k] = int64(rnd.Intn(5) - 2)
		}
		spaces = append(spaces, space.Span(n, v))
	}
	for _, psi := range spaces {
		p, err := PartitionIterations(c.Index, psi)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, red := range []*redundant.Result{nil, c.Redundant()} {
			for _, dupOK := range []bool{false, true} {
				got := VerifyCommunicationFree(p, dupOK, red)
				if want := referenceVerify(p, dupOK, red); (got == nil) != want {
					t.Fatalf("%s: Ψ=%s dupOK=%v red=%v: verify = %v, reference says free=%v\n%s",
						name, psi, dupOK, red != nil, got, want, nest)
				}
			}
			for _, array := range nest.Arrays() {
				dp := (&Result{Iter: p, Redundant: red}).DataPartition(array)
				want := referenceData(p, array, red)
				for bi, db := range dp.Blocks {
					var got []string
					for _, e := range db.Elements {
						got = append(got, fmt.Sprint(e))
					}
					if fmt.Sprint(got) != fmt.Sprint(want[bi]) {
						t.Fatalf("%s: Ψ=%s array %s block %d = %v, reference %v\n%s", name, psi, array, db.BlockID, got, want[bi], nest)
					}
				}
			}
		}
	}
}

func TestVerifyAndDataMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	for name, src := range map[string]string{
		"negative": "for i = 1 to 6\n for j = 1 to 4\n  S1: A[-i, j] = B[i-3, -j] + 1\n  S2: A[-i, j] = A[-i+1, j] * 2\n  S3: B[i-3, -j] = A[-i, j-1] + A[-i, j]\n end\nend",
		"strided":  "for i = 1 to 5\n for j = 1 to 5\n  S1: A[2i, 3j] = C[i, j] + 1\n  S2: C[i, j] = A[2i-2, 3j] + A[2i, 3j-3]\n end\nend",
	} {
		checkNestAgainstReference(t, name, lang.MustParse(src), rnd)
	}
	for name, nest := range map[string]*loop.Nest{"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(3)} {
		checkNestAgainstReference(t, name, nest, rnd)
	}
	for i := 0; i < 120; i++ { // H entries and offsets range over [−2, 2]
		nest := loopgen.Generate(rnd, loopgen.DefaultConfig())
		if i%2 == 1 {
			nest = loopgen.GenerateUsage(rnd, loopgen.DefaultConfig())
		}
		checkNestAgainstReference(t, fmt.Sprint("loopgen ", i), nest, rnd)
	}
}

// TestDataPartitionIsAViewOfTheIterationPartition checks the derived
// data partitions on the corpus, L1–L5 and 300 generated nests under all
// six strategies: DataPartition equals the reference, and a result in
// the revived shape — Materialize over a fresh index from (strategy, Ψ)
// alone, nothing analysed — derives the same partitions and the same
// Info counts as the compiled one.
func TestDataPartitionIsAViewOfTheIterationPartition(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(3)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	for _, nest := range nests {
		c, err := NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("%v\n%s", err, nest)
		}
		// Selective duplicates the first array: a middle ground wherever
		// the nest has more than one.
		dup := map[string]bool{c.Index.Arrays[0]: true}
		for strat := Strategy(0); strat < NumStrategies; strat++ {
			res, err := c.Compute(strat, dup, 0)
			if err != nil {
				t.Fatalf("%s: %v\n%s", strat, err, nest)
			}
			ix, err := loop.NewIndex(nest)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := Materialize(ix, strat, res.Psi, nil)
			if err != nil {
				t.Fatalf("%s: revive: %v\n%s", strat, err, nest)
			}
			info, revInfo := res.Info(), rev.Info()
			if len(info.Arrays) != len(c.Index.Arrays) || len(revInfo.Arrays) != len(info.Arrays) {
				t.Fatalf("%s: Info lists %d arrays compiled, %d revived, nest has %d\n%s",
					strat, len(info.Arrays), len(revInfo.Arrays), len(c.Index.Arrays), nest)
			}
			for _, array := range c.Index.Arrays {
				dp := res.DataPartition(array)
				want := referenceData(res.Iter, array, res.Redundant)
				total, uniq := 0, map[string]bool{}
				for bi, db := range dp.Blocks {
					var got []string
					for _, e := range db.Elements {
						got = append(got, fmt.Sprint(e))
						uniq[fmt.Sprint(e)] = true
					}
					total += len(got)
					if db.BlockID != res.Iter.Blocks[bi].ID || fmt.Sprint(got) != fmt.Sprint(want[bi]) {
						t.Fatalf("%s: array %s block %d = %v, reference %v\n%s", strat, array, db.BlockID, got, want[bi], nest)
					}
				}
				factor := 0.0 // an array only redundant computations touch has no data blocks
				if len(uniq) > 0 {
					factor = float64(total) / float64(len(uniq))
				}
				if dp.Duplicated != (total > len(uniq)) || dp.CopyFactor != factor {
					t.Fatalf("%s: array %s duplicated=%v copy factor %v, blocks hold %d copies of %d elements\n%s",
						strat, array, dp.Duplicated, dp.CopyFactor, total, len(uniq), nest)
				}
				if !reflect.DeepEqual(dp, rev.DataPartition(array)) {
					t.Fatalf("%s: array %s: compiled and revived results derive different data partitions\n%s", strat, array, nest)
				}
				ai, rai := info.Arrays[array], revInfo.Arrays[array]
				if ai.Duplicated != dp.Duplicated || ai.CopyFactor != dp.CopyFactor || ai.Blocks != len(dp.Blocks) {
					t.Fatalf("%s: array %s: Info %+v disagrees with its data partition (%v, %v, %d blocks)\n%s",
						strat, array, ai, dp.Duplicated, dp.CopyFactor, len(dp.Blocks), nest)
				}
				if ai.Duplicated != rai.Duplicated || ai.CopyFactor != rai.CopyFactor || ai.Blocks != rai.Blocks {
					t.Fatalf("%s: array %s: Info counts %+v compiled, %+v revived\n%s", strat, array, ai, rai, nest)
				}
			}
			// Copies that feed only redundant computations: allocated pairs
			// the pruned reference does not hold.
			volume := 0
			for _, array := range c.Index.Arrays {
				useful := referenceData(res.Iter, array, c.Redundant())
				for bi, elems := range referenceData(res.Iter, array, res.Redundant) {
					volume += len(elems) - len(useful[bi])
					for _, e := range useful[bi] {
						if !slices.Contains(elems, e) {
							t.Fatalf("%s: array %s block %d: useful element %s is not allocated\n%s", strat, array, bi+1, e, nest)
						}
					}
				}
			}
			if got := res.RedundantCopyVolume(c.Redundant()); got != volume {
				t.Fatalf("%s: redundant copy volume %d, reference %d\n%s", strat, got, volume, nest)
			}
			if res.DataPartition("no such array") != nil {
				t.Fatalf("%s: data partition of an unreferenced array is not nil", strat)
			}
		}
	}
}
