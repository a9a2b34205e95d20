package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"commfree/internal/chaos"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// verdictStrategies are the strategies the dense verdict is swept over.
var verdictStrategies = []partition.Strategy{
	partition.NonDuplicate, partition.Duplicate,
	partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Mars,
}

// verdictNests is the sweep: L1–L5, the corpus and 200 generated nests.
func verdictNests(t *testing.T) map[string]*loop.Nest {
	t.Helper()
	nests := map[string]*loop.Nest{
		"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(4),
	}
	for i, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.NumIterations() <= diffMaxIters {
			nests[fmt.Sprint("corpus ", i)] = nest
		}
	}
	rnd := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		cfg := loopgen.DefaultConfig()
		nest := loopgen.Generate(rnd, cfg)
		if i%2 == 1 {
			nest = loopgen.GenerateUsage(rnd, cfg)
		}
		nests[fmt.Sprint("loopgen ", i)] = nest
	}
	return nests
}

// TestDenseVerdictIsTheKeyedOne: over the sweep × five strategies ×
// p ∈ {4, 16}, fault-free and under three chaos seeds, Validate's verdict
// against the dense reference is Mismatches of Run's Final against
// Sequential, its element count is len(Sequential), and its report is
// Run's in everything but Final.
func TestDenseVerdictIsTheKeyedOne(t *testing.T) {
	cost := machine.Transputer()
	runs := 0
	for name, nest := range verdictNests(t) {
		for _, strat := range verdictStrategies {
			res, err := partition.Compute(nest, strat)
			if err != nil {
				continue // strategy inapplicable to this nest
			}
			prog, err := CompilePartition(res)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, strat, err)
			}
			ref, want := prog.Reference(), prog.Sequential()
			for _, p := range []int{4, 16} {
				kern, err := prog.Specialize(res, p)
				if err != nil {
					t.Fatalf("%s/%s/p=%d: %v", name, strat, p, err)
				}
				for _, seed := range []int64{0, 1, 2, 3} {
					opts := func() Options {
						if seed == 0 {
							return Options{}
						}
						return Options{Chaos: chaos.Default(seed)}
					}
					label := fmt.Sprintf("%s/%s/p=%d/seed=%d", name, strat, p, seed)
					rep, err := kern.Run(cost, opts())
					vrep, verdict, verr := kern.Validate(cost, opts())
					if (err == nil) != (verr == nil) {
						t.Fatalf("%s: Run err %v, Validate err %v", label, err, verr)
					}
					if err != nil {
						continue
					}
					elements, mismatches := verdict(ref)
					if wantN := Mismatches(rep.Final, want); mismatches != wantN || elements != len(want) {
						t.Errorf("%s: dense verdict %d/%d elements, keyed %d/%d", label, mismatches, elements, wantN, len(want))
					}
					if vrep.Final != nil {
						t.Errorf("%s: Validate built a Final of %d keys", label, len(vrep.Final))
					}
					// Under chaos the workers add node delays in whatever
					// order they finish, so the float sums may differ in
					// the last bit; the accounting is compared fault-free.
					if vrep.Chaos != rep.Chaos || seed == 0 && (!reflect.DeepEqual(vrep.IterationsPerNode, rep.IterationsPerNode) ||
						vrep.Machine.Elapsed() != rep.Machine.Elapsed() || vrep.Machine.Messages() != rep.Machine.Messages()) {
						t.Errorf("%s: Validate's report differs from Run's", label)
					}
					runs++
				}
			}
		}
	}
	if runs < 1000 {
		t.Errorf("only %d verdicts compared", runs)
	}
}

// cloneState is a deep copy of s that the mutation cases may change.
func cloneState(s *State) *State {
	c := &State{prog: s.prog, n: s.n}
	for i := range s.vals {
		c.vals = append(c.vals, append([]float64(nil), s.vals[i]...))
		c.written = append(c.written, append([]bool(nil), s.written[i]...))
	}
	return c
}

// TestDenseVerdictCountsLikeMismatches stages one defect at a time — a
// differing cell, a NaN on both sides, a cell the run lacks, a cell the
// reference lacks — and checks the dense count against Mismatches of
// the keyed views, and that each defect counts once.
func TestDenseVerdictCountsLikeMismatches(t *testing.T) {
	cost := machine.Transputer()
	res, err := partition.Compute(loop.L5(4), partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompilePartition(res)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := prog.Specialize(res, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref := prog.Reference()
	owned := kern.owned[len(kern.owned)/2]
	readOnly := -1 // an array the nest never writes: A of C = C + A·B
	for a := range prog.arrays {
		if !slices.Contains(ref.written[a], true) {
			readOnly = a
		}
	}
	if readOnly < 0 {
		t.Fatal("L5 has no read-only array")
	}
	for _, c := range []struct {
		name  string
		stage func(bufs [][]float64, ref *State)
	}{
		{"none", func([][]float64, *State) {}},
		{"differing", func(_ [][]float64, ref *State) { ref.vals[owned.arr][owned.off]++ }},
		{"NaN", func(bufs [][]float64, ref *State) {
			bufs[owned.arr][owned.off] = math.NaN()
			ref.vals[owned.arr][owned.off] = math.NaN()
		}},
		{"missing", func(_ [][]float64, ref *State) { ref.written[readOnly][0] = true; ref.n++ }},
		{"surplus", func(_ [][]float64, ref *State) { ref.written[owned.arr][owned.off] = false; ref.n-- }},
	} {
		_, ar, err := kern.run(cost, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mutated := cloneState(ref)
		c.stage(ar.bufs, mutated)
		dense, keyed := kern.mismatches(ar.bufs, mutated), Mismatches(kern.gather(ar.bufs), mutated.keyed())
		want := 1
		if c.name == "none" {
			want = 0
		}
		if dense != keyed || dense != want {
			t.Errorf("%s: dense verdict %d, keyed %d, want %d", c.name, dense, keyed, want)
		}
	}

	// A reference of another program of the same nest is compared
	// through the keyed views, and agrees.
	_, ar, err := kern.run(cost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := CompileNest(res.Iter.Nest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := kern.mismatches(ar.bufs, other.Reference()); got != 0 {
		t.Errorf("reference of another program: %d mismatches, want 0", got)
	}

	// A cell the run does not own is missing from the run: the verdict
	// counts the reference's elements the owned list leaves out.
	kern.owned = kern.owned[1:]
	if got := kern.mismatches(ar.bufs, ref); got != 1 {
		t.Errorf("one owned cell dropped: %d mismatches, want 1", got)
	}
}

// TestWarmValidateAllocatesNothingPerElement: a warm Validate plus its
// verdict allocates the same at 8³, 16³ and 32³ — the state stays in
// the arena and the reference, and no key is built. Each size counts the
// fewest allocations of 20 calls: a call whose pooled arena was gone —
// the collector empties the pool, and the race detector drops pooled
// items at random — allocates a new one.
func TestWarmValidateAllocatesNothingPerElement(t *testing.T) {
	cost := machine.Transputer()
	allocs := map[int64]float64{}
	for _, m := range []int64{8, 16, 32} {
		res, err := partition.Compute(loop.L5(m), partition.NonDuplicate)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := CompilePartition(res)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := prog.Specialize(res, 16)
		if err != nil {
			t.Fatal(err)
		}
		ref := prog.Reference()
		validate := func() {
			_, verdict, err := kern.Validate(cost, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, n := verdict(ref); n != 0 {
				t.Fatalf("%d³: %d mismatches", m, n)
			}
		}
		allocs[m] = testing.AllocsPerRun(1, validate)
		for i := 0; i < 19; i++ {
			allocs[m] = min(allocs[m], testing.AllocsPerRun(1, validate))
		}
	}
	if allocs[8] != allocs[16] || allocs[8] != allocs[32] {
		t.Errorf("warm Validate allocates %v at 8³, %v at 16³ and %v at 32³", allocs[8], allocs[16], allocs[32])
	}
}
