package conformance

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
)

// nConformanceNests is the generated-nest count of the main property
// test; with five strategies per nest this is the "≥1000 nests × 5
// strategies" conformance sweep.
const nConformanceNests = 1000

// seedCount is how many seeded schedules a sweep replays: def, or the
// count the environment variable env names when that is in 1..max.
func seedCount(env string, def, max int) int {
	if v, err := strconv.Atoi(os.Getenv(env)); err == nil && v > 0 && v <= max {
		return v
	}
	return def
}

// reportShrunk shrinks a failing nest against the violated property and
// reports the minimal DSL repro, so a red run hands the developer a
// paste-able .cf file instead of a random generator draw.
func reportShrunk(t *testing.T, nest *loop.Nest, firstErr error, fails func(*loop.Nest) bool) {
	t.Helper()
	small := loopgen.Shrink(nest, fails)
	t.Errorf("conformance violation: %v\nminimal repro (.cf):\n%s", firstErr, lang.Format(small))
}

func TestConformanceGeneratedNests(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep skipped in -short")
	}
	rnd := rand.New(rand.NewSource(20260806))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < nConformanceNests; i++ {
		nest := loopgen.Generate(rnd, cfg)
		strat := strategies[i%len(strategies)]
		if err := Check(nest, strat); err != nil {
			reportShrunk(t, nest, err, func(n *loop.Nest) bool { return Check(n, strat) != nil })
			return
		}
	}
}

// A second generator shape: deeper, larger extents, full-rank-only
// matrices — exercises the dense engine and the minimal strategies on
// less degenerate spaces.
func TestConformanceWideNests(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep skipped in -short")
	}
	rnd := rand.New(rand.NewSource(42))
	cfg := loopgen.Config{
		MaxDepth: 4, MaxExtent: 5, MaxArrays: 2, MaxStmts: 2,
		MaxReads: 3, MaxCoeff: 1, MaxOffset: 3, AllowSingular: false,
	}
	for i := 0; i < 100; i++ {
		nest := loopgen.Generate(rnd, cfg)
		strat := strategies[i%len(strategies)]
		if err := Check(nest, strat); err != nil {
			reportShrunk(t, nest, err, func(n *loop.Nest) bool { return Check(n, strat) != nil })
			return
		}
	}
}

// Every parseable program of the language corpus (the fuzz seeds,
// including the paper's L1/L2) must be conformant.
func TestConformanceCorpus(t *testing.T) {
	for _, src := range lang.Corpus() {
		nest, err := lang.Parse(src)
		if err != nil {
			continue // deliberate parser-rejection seeds
		}
		if err := CheckNest(nest); err != nil {
			t.Errorf("corpus program violates conformance: %v\nsource:\n%s", err, src)
		}
	}
}

// TestMutationCheckCatchesDuplication is the suite's self-test: verify
// a deliberately broken invariant is caught and shrunk. A Duplicate
// partition checked under the NON-duplicate rule (dupOK=false) must
// fail for any nest whose duplicate partition actually replicates data
// — if this passed, Verify would be vacuous.
func TestMutationCheckCatchesDuplication(t *testing.T) {
	// The broken invariant: Duplicate-strategy partitions satisfy the
	// non-duplicate disjointness rule.
	brokenFails := func(n *loop.Nest) bool {
		res, err := partition.Compute(n, partition.Duplicate)
		if err != nil {
			return false
		}
		return partition.VerifyCommunicationFree(res.Iter, false, res.Redundant) != nil
	}

	rnd := rand.New(rand.NewSource(3))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < 500; i++ {
		nest := loopgen.Generate(rnd, cfg)
		if !brokenFails(nest) {
			continue
		}
		small := loopgen.Shrink(nest, brokenFails)
		if !brokenFails(small) {
			t.Fatalf("shrinker lost the failure")
		}
		if loopgen.Size(small) > loopgen.Size(nest) {
			t.Fatalf("shrinker grew the nest")
		}
		t.Logf("mutation caught (duplicate partition violates non-duplicate rule); minimal repro (.cf):\n%s",
			lang.Format(small))
		return
	}
	t.Fatal("no generated nest exercised data duplication — mutation check is vacuous")
}
