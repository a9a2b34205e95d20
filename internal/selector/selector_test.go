package selector

import (
	"context"
	"errors"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/obs"
	"commfree/internal/partition"
)

func TestL5PrefersDuplication(t *testing.T) {
	// Matrix multiplication is sequential without duplication; any
	// duplicate-bearing candidate must rank above non-duplicate.
	best, all, err := Best(loop.L5(8), 4, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy == partition.NonDuplicate || best.Strategy == partition.MinimalNonDuplicate {
		t.Errorf("best = %s (sequential strategies should lose)", best)
	}
	if best.Blocks <= 1 {
		t.Errorf("best has no parallelism: %s", best)
	}
	// The ranking covers the four theorems, MARS, and selective subsets
	// of the three arrays: 4 + 1 + (2³−2) = 11 candidates.
	if len(all) != 11 {
		t.Errorf("candidates = %d, want 11", len(all))
	}
	// Ranking is sorted ascending.
	for i := 1; i < len(all); i++ {
		if all[i].Total < all[i-1].Total {
			t.Errorf("ranking unsorted at %d", i)
		}
	}
	// Non-duplicate total must equal its compute time dominated by the
	// whole space on one node.
	for _, c := range all {
		if c.Strategy == partition.NonDuplicate && c.Blocks != 1 {
			t.Errorf("non-duplicate blocks = %d", c.Blocks)
		}
	}
}

func TestL1IndifferentToDuplication(t *testing.T) {
	// L1 gains nothing from duplication (the paper: duplicate strategy
	// obtains the same result); the best candidate's block count must
	// match the plain non-duplicate parallelism.
	best, all, err := Best(loop.L1(), 4, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	if best.Blocks != 7 {
		t.Errorf("best blocks = %d, want 7: %s", best.Blocks, best)
	}
	// All full-strategy candidates expose the same 7 blocks.
	for _, c := range all {
		if c.Strategy == partition.Duplicate && c.Blocks != 7 {
			t.Errorf("duplicate blocks = %d", c.Blocks)
		}
	}
}

func TestL3SelectorIsCostAware(t *testing.T) {
	// At L3's toy size (16 iterations) the Transputer startup cost
	// dominates: staying sequential IS the right call, and the selector
	// must make it.
	best, _, err := Best(loop.L3(), 4, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	if best.Blocks != 1 {
		t.Errorf("with startup-dominated costs best = %s, want sequential", best)
	}
	// With compute-heavy work per iteration, only Theorem 4 parallelizes
	// L3 (4 column blocks) and must win.
	heavy := machine.CostModel{TComp: 1e-2, TStart: 5e-4, TComm: 2.3e-6}
	best, _, err = Best(loop.L3(), 4, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy != partition.MinimalDuplicate {
		t.Errorf("best = %s, want minimal duplicate", best)
	}
	if best.Blocks != 4 {
		t.Errorf("blocks = %d", best.Blocks)
	}
}

func TestSelectiveCandidateCanWin(t *testing.T) {
	// A kernel where duplicating only the small read-only array is
	// cheaper than duplicating everything: conv1d with a large input. The
	// selector must at least rank some selective candidate at or above
	// the full duplicate one in distribution cost terms.
	nest := lang.MustParse(`
for i = 1 to 12
  for k = 1 to 4
    Y[i] = Y[i] + X[i+k-1] * W[k]
  end
end
`)
	_, all, err := Best(nest, 4, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	var foundSelective bool
	for _, c := range all {
		if strings.HasPrefix(c.Label, "selective{") {
			foundSelective = true
		}
	}
	if !foundSelective {
		t.Error("no selective candidates evaluated")
	}
}

func TestReportRendering(t *testing.T) {
	_, all, err := Best(loop.L1(), 2, machine.Transputer())
	if err != nil {
		t.Fatal(err)
	}
	r := Report(all)
	if !strings.Contains(r, "strategy ranking") || !strings.Contains(r, "1. ") {
		t.Errorf("report = %q", r)
	}
}

// TestCompileRunsItsStagesInOrder: the pipeline refuses a nest past the
// limit before it analyses anything, then selects and verifies, and a
// pin that names no candidate stops it before verify.
func TestCompileRunsItsStagesInOrder(t *testing.T) {
	nest := loop.L1() // 16 iterations
	top := func(trc *obs.Trace) (names []string) {
		for _, sp := range trc.Spans() {
			if sp.Parent == 0 {
				names = append(names, sp.Name)
			}
		}
		return names
	}
	for _, c := range []struct {
		pin         string
		p           int
		limit       int64
		stages, err string
	}{
		{"", 4, 16, "selection verify", ""},
		{"duplicate", 4, -1, "selection verify", ""},
		{"", 4, 15, "", "nest spans more than 15 iterations"},
		{"no such candidate", 4, 16, "selection", "not among the evaluated candidates"},
		{"", 0, 16, "", "processors = 0"},
	} {
		trc := obs.New("compile")
		ev, err := Compile(context.Background(), nest, c.p, machine.Transputer(), c.pin, c.limit, trc)
		if got := strings.Join(top(trc), " "); got != c.stages {
			t.Errorf("pin %q, p %d, limit %d: stages %q, want %q", c.pin, c.p, c.limit, got, c.stages)
		}
		switch {
		case c.err == "" && err != nil:
			t.Errorf("pin %q, p %d, limit %d: %v", c.pin, c.p, c.limit, err)
		case c.err == "" && (ev.Result == nil || c.pin != "" && ev.Chosen.Label != c.pin):
			t.Errorf("pin %q: compiled %q", c.pin, ev.Chosen.Label)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("pin %q, p %d, limit %d: err = %v, want %q", c.pin, c.p, c.limit, err, c.err)
		}
	}
	if _, err := Compile(context.Background(), nest, 4, machine.Transputer(), "", 15, nil); !errors.Is(err, machine.ErrBudgetExhausted) {
		t.Errorf("refusal %v does not wrap machine.ErrBudgetExhausted", err)
	}
}

// TestPinFor: a request names a strategy by its wire name or asks for
// "auto"; "selective" names records only.
func TestPinFor(t *testing.T) {
	for name, want := range map[string]string{
		"auto":                  "",
		"non-duplicate":         "non-duplicate",
		"minimal-non-duplicate": "minimal non-duplicate",
		"minimal-duplicate":     "minimal duplicate",
		"mars":                  "mars",
	} {
		if got, err := PinFor(name); err != nil || got != want {
			t.Errorf("PinFor(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	for _, name := range []string{"selective", "", "minimal duplicate", "bogus"} {
		if _, err := PinFor(name); err == nil {
			t.Errorf("PinFor(%q) accepted", name)
		}
	}
}
