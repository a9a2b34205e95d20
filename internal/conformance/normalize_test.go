package conformance

import (
	"math/rand"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loopgen"
)

// nNormalizeCases is the generated-case count of the normalization
// conformance sweep: each case runs every strategy ×
// oracle/kernel engines on both the normalized nest and its hand-uniformized
// twin — the "≥500 affine nests" gate.
const nNormalizeCases = 500

// reportShrunkAffine minimizes a failing affine case against the
// violated property and reports the minimal affine .cf repro. The twin
// is recomputed per candidate so the shrunk program is still paired
// with its own hand-uniformized form.
func reportShrunkAffine(t *testing.T, c *loopgen.AffineCase, firstErr error, chaosSeed int64) {
	t.Helper()
	fails := func(a *lang.AffineNest) bool {
		return CheckNormalize(a, loopgen.Uniformize(a.Nest), c.SymVals, chaosSeed) != nil
	}
	small := loopgen.ShrinkAffine(c.Affine, fails)
	t.Errorf("normalization conformance violation: %v\nminimal affine repro (.cf):\n%s\nsymbolic constants: %v",
		firstErr, lang.FormatAffineNest(small), c.SymVals)
}

// TestNormalizeConformance is the normalization gate: every generated
// affine nest, once normalized, must be canonically identical to its
// hand-uniformized twin, semantically identical to the raw nest under
// bound symbolic constants, and bit-identical to the twin in final
// state and machine accounting across every strategy × both engines —
// periodically under seeded chaos.
func TestNormalizeConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("normalization conformance sweep skipped in -short")
	}
	rnd := rand.New(rand.NewSource(20260807))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < nNormalizeCases; i++ {
		c := loopgen.GenerateAffine(rnd, cfg)
		var chaosSeed int64
		if i%7 == 0 {
			chaosSeed = int64(i + 1)
		}
		if err := CheckNormalize(c.Affine, c.Twin, c.SymVals, chaosSeed); err != nil {
			reportShrunkAffine(t, c, err, chaosSeed)
			return
		}
	}
}

// TestNormalizeConformanceRoundTrip proves the affine formatter and
// parser agree with the generator: rendering a generated case to DSL
// and re-parsing it yields a nest the pass normalizes to the same twin
// (itself rendered and re-parsed, so both sides are source-level).
func TestNormalizeConformanceRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < 50; i++ {
		c := loopgen.GenerateAffine(rnd, cfg)
		src := c.Source()
		a, err := lang.ParseAffine(src)
		if err != nil {
			t.Fatalf("case %d: generated source does not re-parse: %v\n%s", i, err, src)
		}
		twin, err := lang.Parse(lang.Format(c.Twin))
		if err != nil {
			t.Fatalf("case %d: twin source does not re-parse: %v\n%s", i, err, lang.Format(c.Twin))
		}
		if err := CheckNormalize(a, twin, c.SymVals, 0); err != nil {
			t.Fatalf("case %d: re-parsed case violates conformance: %v\n%s", i, err, src)
		}
	}
}

// TestNormalizeMutationCaught is the dimension's self-test: a corrupted
// twin (one offset nudged) must be detected, and the shrinker must hand
// back a smaller-or-equal affine repro that still fails.
func TestNormalizeMutationCaught(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	cfg := loopgen.DefaultConfig()
	c := loopgen.GenerateAffine(rnd, cfg)
	c.Twin.Body[0].Write.Offset[0]++
	err := CheckNormalize(c.Affine, c.Twin, c.SymVals, 0)
	if err == nil {
		t.Fatal("corrupted twin not detected — the canonical comparison is vacuous")
	}
	t.Logf("mutation caught: %v", err)

	// The shrinker must preserve a real (non-mutated) failure. Use an
	// always-failing property stand-in that still exercises the moves:
	// "the pass accepts the nest" negated never holds, so instead assert
	// shrinking against the detection predicate keeps the failure.
	fails := func(a *lang.AffineNest) bool {
		return CheckNormalize(a, c.Twin, c.SymVals, 0) != nil
	}
	small := loopgen.ShrinkAffine(c.Affine, fails)
	if !fails(small) {
		t.Fatal("shrinker lost the failure")
	}
}
