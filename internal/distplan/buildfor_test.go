package distplan

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
)

// keyedBuildFor is BuildFor as it was: every (element, block) pair
// appended to a list and counting-sorted by element, then every element
// with readers keyed by its rendered node set.
func keyedBuildFor(res *partition.Result, place assign.Placement) *Plan {
	ix, red, blocks := res.Iter.Index, res.Redundant, res.Iter.Blocks
	used := place.NumProcessors()
	plan := &Plan{res: res}
	plan.BlockNode, plan.Loads = place.Blocks(res.Iter)
	type pair struct{ elem, block int32 }
	var pairs []pair
	stamp := make([]int32, ix.NumElems())
	plan.first = make([]int32, ix.NumElems()+1)
	for bi, b := range blocks {
		for _, pos := range b.Pos {
			row := ix.Row(int(pos))
			for s := range res.Iter.Nest.Body {
				if red != nil && red.RedundantAt(s, int(pos)) {
					continue
				}
				for _, e := range row[ix.First[s] : ix.First[s+1]-1] {
					if stamp[e] != int32(bi+1) {
						stamp[e] = int32(bi + 1)
						pairs = append(pairs, pair{e, int32(bi)})
						plan.first[e+1]++
					}
				}
			}
		}
	}
	for e := 0; e < ix.NumElems(); e++ {
		plan.first[e+1] += plan.first[e]
	}
	plan.consumers = make([]int32, len(pairs))
	fill := slices.Clone(plan.first)
	for _, pr := range pairs {
		plan.consumers[fill[pr.elem]] = pr.block
		fill[pr.elem]++
	}
	type group struct {
		nodes     []int
		elems     []int32
		delivered int
	}
	groups := map[string]*group{}
	var nodes []int
	var label []byte
	for e := int32(0); int(e) < ix.NumElems(); e++ {
		readers := plan.consumers[plan.first[e]:plan.first[e+1]]
		if len(readers) == 0 {
			continue
		}
		nodes = nodes[:0]
		for _, b := range readers {
			nodes = append(nodes, plan.BlockNode[b])
		}
		sort.Ints(nodes)
		nodes = slices.Compact(nodes)
		label = append(label[:0], '[')
		for i, n := range nodes {
			if i > 0 {
				label = append(label, ' ')
			}
			label = strconv.AppendInt(label, int64(n), 10)
		}
		label = append(label, ']')
		g := groups[string(label)]
		if g == nil {
			g = &group{nodes: slices.Clone(nodes)}
			groups[string(label)] = g
		}
		g.elems = append(g.elems, e)
		g.delivered += len(readers)
	}
	labels := make([]string, 0, len(groups))
	for l := range groups {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	unicast := make([]*Step, used)
	for _, l := range labels {
		g := groups[l]
		st := Step{Kind: Multicast, Nodes: g.nodes, Words: len(g.elems), Delivered: g.delivered, elems: g.elems}
		switch {
		case len(g.nodes) == used && used > 1:
			st.Kind = Broadcast
			plan.Steps = append(plan.Steps, st)
		case len(g.nodes) > 1:
			plan.Steps = append(plan.Steps, st)
		default:
			st.Kind = Unicast
			unicast[g.nodes[0]] = &st
		}
	}
	for _, st := range unicast {
		if st != nil {
			plan.Steps = append(plan.Steps, *st)
		}
	}
	return plan
}

// TestBuildForIsTheKeyedGrouping pins BuildFor to the string-keyed
// grouping it replaced: the same steps (kind, nodes, words, delivered
// copies, elements in order), block nodes and consumer lists, over L1–L5,
// the corpus and 300 generated nests under all six strategies, on 4, 8
// and 16 processors.
func TestBuildForIsTheKeyedGrouping(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	rnd := rand.New(rand.NewSource(30))
	for i := 0; i < 300; i++ {
		nests = append(nests, loopgen.Generate(rnd, loopgen.DefaultConfig()))
	}
	plans := 0
	for ni, nest := range nests {
		pc, err := partition.NewContext(nest, nil, 0)
		if err != nil {
			t.Fatalf("nest %d: %v\n%s", ni, err, nest)
		}
		dup := map[string]bool{pc.Index.Arrays[0]: true}
		for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
			partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Selective, partition.Mars} {
			res, err := pc.Compute(strat, dup, 0)
			if err != nil {
				t.Fatalf("nest %d %s: %v", ni, strat, err)
			}
			for _, p := range []int{4, 8, 16} {
				place := assign.Place(res.Iter.Q, p)
				got, want := BuildFor(res, place), keyedBuildFor(res, place)
				what := fmt.Sprintf("nest %d %s p=%d", ni, strat, p)
				if !reflect.DeepEqual(got.Steps, want.Steps) {
					t.Fatalf("%s: steps\n%+v\nwant\n%+v\n%s", what, got.Steps, want.Steps, nest)
				}
				if !reflect.DeepEqual(got.BlockNode, want.BlockNode) || !reflect.DeepEqual(got.Loads, want.Loads) {
					t.Fatalf("%s: block nodes %v loading %v, want %v loading %v", what, got.BlockNode, got.Loads, want.BlockNode, want.Loads)
				}
				if !reflect.DeepEqual(got.first, want.first) || !reflect.DeepEqual(got.consumers, want.consumers) {
					t.Fatalf("%s: consumers %v at %v, want %v at %v", what, got.consumers, got.first, want.consumers, want.first)
				}
				plans++
			}
		}
	}
	t.Logf("%d plans", plans)
}
