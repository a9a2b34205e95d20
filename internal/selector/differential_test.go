package selector

// Shared evaluation ≡ independent evaluation. The oracle below prices
// every candidate the way the selector worked before candidates were
// grouped into classes — one full, unshared partition per candidate —
// and the ranking Evaluate produces from one context must be identical:
// same labels, same order (ties included), bit-equal times.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/machine"
	"commfree/internal/mars"
	"commfree/internal/obs"
	"commfree/internal/partition"
)

func independent(nest *loop.Nest, p int, cost machine.CostModel) ([]Candidate, error) {
	var all []Candidate
	add := func(label string, res *partition.Result, err error, duplicated []string) error {
		if err != nil {
			return err
		}
		c := estimate(res, assign.Place(res.Iter.Q, p), cost)
		c.Label, c.Duplicated = label, duplicated
		all = append(all, c)
		return nil
	}
	for _, s := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate, partition.MinimalNonDuplicate, partition.MinimalDuplicate} {
		res, err := partition.Compute(nest, s)
		if err := add(s.String(), res, err, nil); err != nil {
			return nil, err
		}
	}
	res, err := mars.Compute(nest)
	if err := add(partition.Mars.String(), res, err, nil); err != nil {
		return nil, err
	}
	if arrays := nest.Arrays(); len(arrays) <= 4 {
		for mask := 1; mask < (1<<len(arrays))-1; mask++ {
			dup := map[string]bool{}
			var names []string
			for i, a := range arrays {
				if mask&(1<<i) != 0 {
					dup[a] = true
					names = append(names, a)
				}
			}
			res, err := partition.ComputeSelective(nest, dup)
			if err := add("selective{"+strings.Join(names, ",")+"}", res, err, names); err != nil {
				return nil, err
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Total < all[j].Total })
	return all, nil
}

func sameRanking(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, independent evaluation has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Label != w.Label || g.Strategy != w.Strategy || g.Blocks != w.Blocks || fmt.Sprint(g.Duplicated) != fmt.Sprint(w.Duplicated) ||
			math.Float64bits(g.DistributionTime) != math.Float64bits(w.DistributionTime) ||
			math.Float64bits(g.ComputeTime) != math.Float64bits(w.ComputeTime) ||
			math.Float64bits(g.Total) != math.Float64bits(w.Total) {
			return fmt.Errorf("rank %d: shared %+v, independent %+v", i, g, w)
		}
	}
	return nil
}

func TestSharedEvaluationMatchesIndependent(t *testing.T) {
	nests := map[string]*loop.Nest{"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(4)}
	files, err := filepath.Glob("../../testdata/*.cf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		program, err := lang.ParseProgram(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i, n := range program {
			nests[fmt.Sprint(filepath.Base(f), "#", i)] = n
		}
	}
	rnd := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		cfg := loopgen.DefaultConfig()
		nest := loopgen.Generate(rnd, cfg)
		if i%2 == 1 {
			nest = loopgen.GenerateUsage(rnd, cfg)
		}
		nests[fmt.Sprint("loopgen ", i)] = nest
	}
	for name, nest := range nests {
		for _, p := range []int{4, 16} {
			best, got, err := Best(nest, p, machine.Transputer())
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			want, err := independent(nest, p, machine.Transputer())
			if err != nil {
				t.Fatalf("%s p=%d: independent: %v", name, p, err)
			}
			if err := sameRanking(got, want); err != nil {
				t.Fatalf("%s p=%d: %v\n%s", name, p, err, nest)
			}
			if fmt.Sprint(best) != fmt.Sprint(got[0]) {
				t.Fatalf("%s p=%d: best %v is not the head of the ranking %v", name, p, best, got[0])
			}
		}
	}
}

// TestEvaluateKeepsTheChosenCandidate: whatever candidate is pinned (or
// wins), the compile hands back that candidate's own view — strategy,
// per-array spaces, redundancy oracle — over its class's partition, it
// is the partition an independent compile of the candidate produces, and
// the forall loop and assignment are derived for that partition.
func TestEvaluateKeepsTheChosenCandidate(t *testing.T) {
	for _, nest := range []*loop.Nest{loop.L1(), loop.L3(), loop.L5(4)} {
		_, ranking, err := Best(nest, 4, machine.Transputer())
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range append([]string{""}, labels(ranking)...) {
			ev, err := Compile(context.Background(), nest, 4, machine.Transputer(), pin, -1, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := ranking[0]
			for _, c := range ranking {
				if c.Label == pin {
					want = c
				}
			}
			if fmt.Sprint(ev.Chosen) != fmt.Sprint(want) || ev.Result == nil || ev.Result.Strategy != want.Strategy {
				t.Fatalf("pin %q: chosen %v (result %v), want %v", pin, ev.Chosen, ev.Result, want)
			}
			var ref *partition.Result
			switch want.Strategy {
			case partition.Mars:
				ref, err = mars.Compute(nest)
			case partition.Selective:
				dup := map[string]bool{}
				for _, a := range want.Duplicated {
					dup[a] = true
				}
				ref, err = partition.ComputeSelective(nest, dup)
			default:
				ref, err = partition.Compute(nest, want.Strategy)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%+v", ev.Result.Info()), fmt.Sprintf("%+v", ref.Info()); got != want {
				t.Errorf("pin %q: kept partition\n %s\nindependent compile\n %s", pin, got, want)
			}
			if (ev.Result.Redundant == nil) != (ref.Redundant == nil) {
				t.Errorf("pin %q: kept result's redundancy oracle presence differs from an independent compile", pin)
			}
			if err := ev.Result.Verify(); err != nil {
				t.Errorf("pin %q: %v", pin, err)
			}
			if ev.Transformed == nil || ev.Assignment == nil || ev.Assignment.Tr != ev.Transformed || ev.Transformed.Partition() != ev.Result.Iter {
				t.Errorf("pin %q: kept transformation/assignment missing or unrelated", pin)
			}
		}
		if ev, err := Evaluate(context.Background(), nest, 4, machine.Transputer(), "no such candidate", nil); err != nil || ev.Result != nil {
			t.Errorf("unknown pin: result %v, err %v; want a priced ranking and no kept result", ev.Result, err)
		}
	}
}

func labels(cs []Candidate) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Label)
	}
	return out
}

// pollCtx is a context whose Err turns into Canceled after a fixed
// number of polls — cancellation that lands at a chosen point of the
// selection, deterministically.
type pollCtx struct {
	context.Context
	polls int
}

func (c *pollCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvaluateStopsBetweenClasses: L5 has four coset classes plus MARS.
// A context cancelled after k polls must stop the evaluation with
// context.Canceled having priced exactly k classes.
func TestEvaluateStopsBetweenClasses(t *testing.T) {
	nest := loop.L5(4)
	classSpans := func(trc *obs.Trace) (n int) {
		for _, sp := range trc.Spans() {
			if sp.Name == "class" {
				n++
			}
		}
		return n
	}
	trc := obs.New("full")
	ev, err := Evaluate(context.Background(), nest, 4, machine.Transputer(), "", trc)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Classes != 5 || classSpans(trc) != 5 || len(ev.Ranking) != 11 {
		t.Fatalf("L5: %d classes (%d spans) over %d candidates, want 5 over 11", ev.Classes, classSpans(trc), len(ev.Ranking))
	}
	for k := 0; k < ev.Classes; k++ {
		trc := obs.New("cancelled")
		_, err := Evaluate(&pollCtx{Context: context.Background(), polls: k}, nest, 4, machine.Transputer(), "", trc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d polls: err = %v, want context.Canceled", k, err)
		}
		if got := classSpans(trc); got != k {
			t.Errorf("cancelled after %d polls: %d classes were priced", k, got)
		}
	}
}
