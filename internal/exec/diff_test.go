package exec

// Differential tests: the kernel engine (and the dense sequential
// reference) must produce bit-identical final state — and identical
// machine accounting — to the map-based oracle on every nest we can
// get our hands on: the
// repository's testdata/ programs and the shared lang fuzz corpus,
// under all four partitioning strategies (so redundant-computation
// elimination is exercised through the minimal ones).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// diffMaxIters bounds the nests the differential harness will execute;
// fuzz inputs can describe astronomically large spaces.
const diffMaxIters = 1 << 14

var diffStrategies = []partition.Strategy{
	partition.NonDuplicate,
	partition.Duplicate,
	partition.MinimalNonDuplicate,
	partition.MinimalDuplicate,
}

// diffNest runs one nest through both engines under every strategy and
// compares everything observable.
func diffNest(t *testing.T, nest *loop.Nest, label string) {
	t.Helper()
	if err := nest.Validate(); err != nil {
		return
	}
	var iters int64
	nest.Walk(func([]int64) bool { iters++; return iters <= diffMaxIters })
	if iters == 0 || iters > diffMaxIters {
		return
	}
	want := Sequential(nest, nil)
	cost := machine.Transputer()
	for _, strat := range diffStrategies {
		res, err := partition.Compute(nest, strat)
		if err != nil {
			continue // strategy inapplicable to this nest
		}
		if err := res.Verify(); err != nil {
			t.Errorf("%s/%s: partition not communication-free: %v", label, strat, err)
			continue
		}

		// Section III.C: pruning redundant computations must leave the
		// sequential final state unchanged.
		if res.Redundant != nil {
			if err := Equal(want, Sequential(nest, res.Redundant)); err != nil {
				t.Errorf("%s/%s: oracle with elimination diverges: %v", label, strat, err)
				continue
			}
		}

		prog, err := CompileNest(res.Analysis.Nest, res.Redundant)
		if err != nil {
			t.Errorf("%s/%s: CompileNest: %v", label, strat, err)
			continue
		}
		if err := Equal(want, prog.Sequential()); err != nil {
			t.Errorf("%s/%s: dense sequential diverges: %v", label, strat, err)
			continue
		}

		for _, p := range []int{3, 16} {
			oracle, err := Parallel(res, p, cost)
			if err != nil {
				t.Errorf("%s/%s/p=%d: oracle parallel: %v", label, strat, p, err)
				continue
			}
			kern, err := prog.Specialize(res, p)
			if err != nil {
				t.Errorf("%s/%s/p=%d: Specialize: %v", label, strat, p, err)
				continue
			}
			// Run twice: the second run exercises the recycled arena.
			for round := 0; round < 2; round++ {
				krep, err := kern.Run(cost, Options{})
				if err != nil {
					t.Errorf("%s/%s/p=%d: kernel run %d: %v", label, strat, p, round, err)
					break
				}
				if err := Equal(oracle.Final, krep.Final); err != nil {
					t.Errorf("%s/%s/p=%d: kernel run %d final state diverges: %v", label, strat, p, round, err)
				}
				if err := Equal(want, krep.Final); err != nil {
					t.Errorf("%s/%s/p=%d: kernel run %d vs sequential: %v", label, strat, p, round, err)
				}
				if msgs := krep.Machine.InterNodeMessages(); msgs != 0 {
					t.Errorf("%s/%s/p=%d: kernel: %d inter-node messages", label, strat, p, msgs)
				}
				if om, km := oracle.Machine.Messages(), krep.Machine.Messages(); om != km {
					t.Errorf("%s/%s/p=%d: kernel host messages %d vs oracle %d", label, strat, p, km, om)
				}
				if ow, kw := oracle.Machine.DataMoved(), krep.Machine.DataMoved(); ow != kw {
					t.Errorf("%s/%s/p=%d: kernel data moved %d vs oracle %d", label, strat, p, kw, ow)
				}
				if od, kd := oracle.Machine.DistributionTime(), krep.Machine.DistributionTime(); od != kd {
					t.Errorf("%s/%s/p=%d: kernel distribution time %v vs oracle %v", label, strat, p, kd, od)
				}
				if len(oracle.IterationsPerNode) != len(krep.IterationsPerNode) {
					t.Errorf("%s/%s/p=%d: kernel used %d nodes vs oracle %d",
						label, strat, p, len(krep.IterationsPerNode), len(oracle.IterationsPerNode))
					break
				}
				for id := range oracle.IterationsPerNode {
					if oracle.IterationsPerNode[id] != krep.IterationsPerNode[id] {
						t.Errorf("%s/%s/p=%d: kernel node %d iterations %d vs oracle %d",
							label, strat, p, id, krep.IterationsPerNode[id], oracle.IterationsPerNode[id])
					}
				}
			}
		}
	}
}

func diffSource(t *testing.T, src, label string) {
	t.Helper()
	nests, err := lang.ParseProgram(src)
	if err != nil {
		return // rejected inputs are out of scope here
	}
	for i, nest := range nests {
		diffNest(t, nest, label+"#"+string(rune('0'+i)))
	}
}

// TestDiffTestdata diffs both engines over every DSL program in
// testdata/.
func TestDiffTestdata(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cf") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			diffSource(t, string(data), name)
		})
		ran++
	}
	if ran < 5 {
		t.Errorf("expected at least 5 testdata programs, diffed %d", ran)
	}
}

// TestDiffCorpus diffs both engines over every parseable nest in the
// shared lang fuzz corpus.
func TestDiffCorpus(t *testing.T) {
	for i, src := range lang.Corpus() {
		diffSource(t, src, "corpus")
		_ = i
	}
}

// FuzzDiffExec feeds arbitrary DSL sources through both engines; any
// accepted nest must execute identically on each.
func FuzzDiffExec(f *testing.F) {
	for _, src := range lang.Corpus() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		diffSource(t, src, "fuzz")
	})
}
