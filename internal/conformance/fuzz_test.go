package conformance

import (
	"testing"

	"commfree/internal/lang"
)

// FuzzConformance feeds arbitrary DSL source through the parser and,
// when it yields a valid nest of tractable size, demands every theorem
// conformance property of it — all five strategies partition and
// Verify on every input, and the parallel-execution engines run under
// a strategy derived from the input (so the fuzzer exercises every
// scheduler, MARS included). Seeds are the language corpus (the
// paper's loops plus the parser's deliberate-rejection cases, which
// exercise the skip path) and a nest that computes NaN, which every
// engine must reproduce as NaN.
func FuzzConformance(f *testing.F) {
	for _, src := range lang.Corpus() {
		f.Add(src)
	}
	f.Add("for i=0to 7 A[i]=0/0end")
	f.Fuzz(func(t *testing.T, src string) {
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
		strat := strategies[len(src)%len(strategies)]
		if err := Check(nest, strat); err != nil {
			t.Fatalf("conformance violation on fuzzed program (%s): %v\nsource:\n%s", strat, err, src)
		}
	})
}
