package selector

// The compilation service calls Best from a pool of workers, sometimes
// against the same *loop.Nest (cached compilations share the parsed
// nest). This test documents — and, under -race, proves — that the
// whole analysis layer underneath Best (dependence analysis, partition
// derivation, transformation, assignment, cost simulation) treats its
// input nest as read-only: 16 goroutines race Best over shared nests
// and must agree on the result.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/machine"
	"commfree/internal/obs"
)

func TestBestConcurrentOnSharedNest(t *testing.T) {
	nests := map[string]*loop.Nest{
		"L1": loop.L1(),
		"L2": loop.L2(),
		"L3": loop.L3(),
		"L4": loop.L4(),
		"L5": loop.L5(4),
	}
	cost := machine.Transputer()
	for name, nest := range nests {
		nest := nest
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const goroutines = 16
			labels := make([]string, goroutines)
			totals := make([]float64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					best, all, err := Best(nest, 4, cost)
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					if len(all) == 0 {
						t.Errorf("goroutine %d: empty ranking", g)
						return
					}
					labels[g] = best.Label
					totals[g] = best.Total
				}(g)
			}
			wg.Wait()
			for g := 1; g < goroutines; g++ {
				if labels[g] != labels[0] || totals[g] != totals[0] {
					t.Errorf("goroutine %d picked %q (%.9fs), goroutine 0 picked %q (%.9fs)",
						g, labels[g], totals[g], labels[0], totals[0])
				}
			}
		})
	}
}

// TestEvaluateIndependentOfGOMAXPROCS: classes are priced concurrently,
// yet one worker and four produce the same evaluation — ranking (ties in
// enumeration order), chosen candidate (unpinned: the ranking's head,
// the first of equal totals), its Ψ and its block count —
// unpinned and pinned to the dearest candidate, over L1–L5, the corpus
// and 200 generated nests.
func TestEvaluateIndependentOfGOMAXPROCS(t *testing.T) {
	nests := map[string]*loop.Nest{
		"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(4),
	}
	for i, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil {
			nests[fmt.Sprint("corpus ", i)] = nest
		}
	}
	rnd := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		nest := loopgen.Generate(rnd, loopgen.DefaultConfig())
		if i%2 == 1 {
			nest = loopgen.GenerateUsage(rnd, loopgen.DefaultConfig())
		}
		nests[fmt.Sprint("loopgen ", i)] = nest
	}
	type outcome struct {
		Ranking []Candidate
		Chosen  Candidate
		Classes int
		Psi     string
		Blocks  int
	}
	evaluate := func(nest *loop.Nest, procs int, pin string) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ev, err := Evaluate(context.Background(), nest, 8, machine.Transputer(), pin, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pin == "" && !reflect.DeepEqual(ev.Chosen, ev.Ranking[0]) {
			t.Fatalf("GOMAXPROCS %d chose %v, not the head of the ranking %v", procs, ev.Chosen, ev.Ranking[0])
		}
		return outcome{ev.Ranking, ev.Chosen, ev.Classes, ev.Result.Psi.String(), ev.Result.Iter.NumBlocks()}
	}
	for name, nest := range nests {
		one := evaluate(nest, 1, "")
		dearest := one.Ranking[len(one.Ranking)-1].Label
		for _, pin := range []string{"", dearest} {
			if pin != "" {
				one = evaluate(nest, 1, pin)
			}
			if four := evaluate(nest, 4, pin); !reflect.DeepEqual(one, four) {
				t.Fatalf("%s pin %q: GOMAXPROCS 1 gives\n%+v\nGOMAXPROCS 4 gives\n%+v", name, pin, one, four)
			}
		}
	}
}

// TestClassPanicKeepsItsStack: a class that panics on a worker is
// re-raised on the caller's goroutine with its value unchanged, and its
// class span keeps the stack of the frame that actually failed — the
// re-raise's own stack no longer names it.
func TestClassPanicKeepsItsStack(t *testing.T) {
	trc := obs.New("panic")
	var v any
	func() {
		defer func() { v = recover() }()
		// Zero processors: assign.Place refuses them by panicking.
		Evaluate(context.Background(), loop.L1(), 0, machine.Transputer(), "", trc)
	}()
	perr, ok := v.(error)
	if !ok || !strings.Contains(perr.Error(), "processor count 0") {
		t.Fatalf("recovered %v, want assign's processor-count panic", v)
	}
	found := false
	for _, sp := range trc.Spans() {
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Str
		}
		if sp.Name == "class" && attrs["panic"] == perr.Error() {
			found = true
			if !strings.Contains(attrs["stack"], "commfree/internal/assign.Place(") {
				t.Errorf("class span's stack does not name the failing frame:\n%s", attrs["stack"])
			}
		}
	}
	if !found {
		t.Error("no class span records the panic")
	}
}
