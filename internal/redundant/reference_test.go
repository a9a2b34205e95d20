package redundant

// The rank-keyed Eliminate against a straightforward reference: the
// string-keyed per-element timelines and the iterate-until-stable
// fixpoint that Section III.C describes, kept here only as a test
// oracle.

import (
	"fmt"
	"math/rand"
	"testing"

	"commfree/internal/deps"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
)

type refEvent struct {
	comp    string // "stmt|iter"
	isWrite bool
}

// referenceEliminate returns the redundant computations ("stmt|iter")
// and, per dependence, whether the Val sets of its endpoints intersect.
func referenceEliminate(a *deps.Analysis) (map[string]bool, []bool) {
	nest := a.Nest
	comp := func(si int, it []int64) string { return fmt.Sprint(si, "|", it) }
	timeline := map[string][]refEvent{}
	for _, it := range nest.Iterations() {
		for si, st := range nest.Body {
			for _, r := range st.Reads {
				k := r.Array + fmt.Sprint(r.Index(it))
				timeline[k] = append(timeline[k], refEvent{comp(si, it), false})
			}
			k := st.Write.Array + fmt.Sprint(st.Write.Index(it))
			timeline[k] = append(timeline[k], refEvent{comp(si, it), true})
		}
	}
	redundant := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, events := range timeline {
			for i, ev := range events {
				if !ev.isWrite || redundant[ev.comp] {
					continue
				}
				next, dead := -1, true
				for j := i + 1; j < len(events); j++ {
					if events[j].isWrite {
						next = j
						break
					}
					dead = dead && redundant[events[j].comp]
				}
				if next >= 0 && dead {
					redundant[ev.comp] = true
					changed = true
				}
			}
		}
	}
	val := func(acc deps.Access) map[string]bool {
		out := map[string]bool{}
		for _, it := range nest.Iterations() {
			if !redundant[comp(acc.Stmt, it)] {
				out[fmt.Sprint(acc.Ref.Index(it))] = true
			}
		}
		return out
	}
	var useful []bool
	for _, d := range a.AllDependences() {
		hit := false
		dst := val(d.Dst)
		for k := range val(d.Src) {
			hit = hit || dst[k]
		}
		useful = append(useful, hit)
	}
	return redundant, useful
}

func checkAgainstReference(t *testing.T, name string, nest *loop.Nest) {
	t.Helper()
	a, err := deps.Analyze(nest)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := Eliminate(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantUseful := referenceEliminate(a)
	if got.NumRedundant() != len(want) {
		t.Fatalf("%s: %d redundant computations, reference %d\n%s", name, got.NumRedundant(), len(want), nest)
	}
	for pos, it := range nest.Iterations() {
		for si := range nest.Body {
			w := want[fmt.Sprint(si, "|", it)]
			if got.IsRedundant(si, it) != w || got.RedundantAt(si, pos) != w {
				t.Fatalf("%s: S%d%v redundant = %v, reference %v\n%s", name, si+1, it, got.IsRedundant(si, it), w, nest)
			}
		}
	}
	useful := map[*deps.Dependence]bool{}
	for _, d := range got.UsefulDeps {
		useful[d] = true
	}
	if len(got.UsefulDeps)+len(got.FalseDeps) != len(wantUseful) {
		t.Fatalf("%s: classified %d dependences of %d", name, len(got.UsefulDeps)+len(got.FalseDeps), len(wantUseful))
	}
	for i, d := range a.AllDependences() {
		if useful[d] != wantUseful[i] {
			t.Fatalf("%s: dependence %s useful = %v, reference %v\n%s", name, d, useful[d], wantUseful[i], nest)
		}
	}
}

func TestEliminateMatchesReference(t *testing.T) {
	for name, src := range map[string]string{
		"negative": "for i = 1 to 6\n for j = 1 to 4\n  S1: A[-i, j] = B[i-3, -j] + 1\n  S2: A[-i, j] = A[-i+1, j] * 2\n  S3: B[i-3, -j] = A[-i, j-1] + A[-i, j]\n end\nend",
		"strided":  "for i = 1 to 5\n for j = 1 to 5\n  S1: A[2i, 3j] = C[i, j] + 1\n  S2: C[i, j] = A[2i-2, 3j] + A[2i, 3j-3]\n  S3: A[2i, 3j] = C[i, j] * C[i-1, j]\n end\nend",
		"chain":    "for i = 1 to 8\n S1: A[i] = B[i] + 1\n S2: A[i] = A[i] + C[i]\n S3: A[i] = C[i] * 2\n S4: D[i] = A[i] + A[i-1]\nend",
	} {
		checkAgainstReference(t, name, lang.MustParse(src))
	}
	for name, nest := range map[string]*loop.Nest{"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(4)} {
		checkAgainstReference(t, name, nest)
	}
	rnd := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ { // H entries and offsets range over [−2, 2]
		nest := loopgen.Generate(rnd, loopgen.DefaultConfig())
		if i%2 == 1 {
			nest = loopgen.GenerateUsage(rnd, loopgen.DefaultConfig())
		}
		checkAgainstReference(t, fmt.Sprint("loopgen ", i), nest)
	}
}

// TestEliminateWorkIsDeterministic: the sweep is one pass over flat
// arrays, so two runs on one nest do exactly the same work — the same
// allocation count, run after run (the map-ordered fixpoint it replaced
// needed a varying number of passes).
func TestEliminateWorkIsDeterministic(t *testing.T) {
	for _, nest := range []*loop.Nest{loop.L3(), loop.L5(6), loopgen.GenerateUsage(rand.New(rand.NewSource(5)), loopgen.DefaultConfig())} {
		a, err := deps.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := loop.NewIndex(nest)
		if err != nil {
			t.Fatal(err)
		}
		first := testing.AllocsPerRun(1, func() { EliminateOn(a, ix) })
		for run := 0; run < 5; run++ {
			if again := testing.AllocsPerRun(1, func() { EliminateOn(a, ix) }); again != first {
				t.Fatalf("run %d allocated %v objects, the first run %v", run, again, first)
			}
		}
	}
}
