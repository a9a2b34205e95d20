package conformance

import (
	"math"
	"math/rand"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
)

// nChaosSchedules is the seeded-schedule count of the chaos sweep; the
// CHAOS_SCHEDULES environment variable overrides it.
const nChaosSchedules = 1000

// TestChaosConformance is the chaos sweep: N seeded failure schedules
// across generated nests, rotating all five strategies. Every schedule
// must end bit-identical to the fault-free run within bounded retries
// and zero inter-node messages; a violation shrinks to a minimal
// (.cf, seed) repro.
func TestChaosConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	rnd := rand.New(rand.NewSource(19930806))
	cfg := loopgen.DefaultConfig()
	n := seedCount("CHAOS_SCHEDULES", nChaosSchedules, math.MaxInt)
	for i := 0; i < n; i++ {
		nest := loopgen.Generate(rnd, cfg)
		strat := strategies[i%len(strategies)]
		seed := int64(i + 1)
		if err := CheckChaos(nest, strat, seed); err != nil {
			small := loopgen.Shrink(nest, func(n *loop.Nest) bool {
				return CheckChaos(n, strat, seed) != nil
			})
			t.Errorf("chaos conformance violation: %v\nrepro: seed %d, strategy %s, minimal nest (.cf):\n%s",
				err, seed, strat, lang.Format(small))
			return
		}
	}
}

// FuzzChaos feeds arbitrary DSL source and schedule seeds through the
// chaos dimension: any parseable, tractable nest must recover
// bit-identically under any seed's failure schedule.
func FuzzChaos(f *testing.F) {
	for i, src := range lang.Corpus() {
		f.Add(src, int64(i+1))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		nest, err := lang.Parse(src)
		if err != nil {
			t.Skip("not a valid program")
		}
		if nest.NumIterations() > 1<<10 {
			t.Skip("iteration space too large for a fuzz step")
		}
		strat := strategies[int(uint64(seed)%uint64(len(strategies)))]
		if err := CheckChaos(nest, strat, seed); err != nil {
			t.Fatalf("chaos conformance violation (seed %d, %s): %v\nsource:\n%s", seed, strat, err, src)
		}
	})
}
