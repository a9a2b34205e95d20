package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/selector"
	"commfree/internal/transform"
)

// oracleJSON is json.Marshal's encoding of v.
func oracleJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var planStrategies = []string{"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars", "auto"}

// TestEncodePlanIsEncodingJSONs: the hand-written encoder writes what
// json.Marshal writes, byte for byte, for every plan of the corpus and
// L1–L5 under six strategies on 4 and 16 processors, and the entry's
// record holds exactly those bytes.
func TestEncodePlanIsEncodingJSONs(t *testing.T) {
	srcs := lang.Corpus()
	for _, n := range []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)} {
		srcs = append(srcs, lang.Format(n))
	}
	s := newTestService(t, Config{})
	plans := 0
	for _, src := range srcs {
		for _, strat := range planStrategies {
			for _, p := range []int{4, 16} {
				e, _, err := s.compileEntry(context.Background(), CompileRequest{Source: src, Strategy: strat, Processors: p}, nil)
				if err != nil {
					continue // a corpus program the front end refuses has no plan
				}
				plans++
				got, err := encodePlan(e.plan)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleJSON(t, e.plan); !bytes.Equal(got, want) {
					t.Fatalf("%s p=%d: the encoder and encoding/json differ\n got %s\nwant %s\nsource:\n%s", strat, p, got, want, src)
				}
				if !bytes.Equal(e.rec.Plan, got) {
					t.Fatalf("%s p=%d: the record holds other bytes than the encoder writes", strat, p)
				}
			}
		}
	}
	if plans < 6*2*len(srcs)/2 {
		t.Fatalf("only %d of %d requests compiled", plans, 6*2*len(srcs))
	}
}

// TestEncodePlanEdgeCases holds the encoder to encoding/json where the
// corpus does not reach: escapes, invalid UTF-8, the line and paragraph
// separators, the exponent range of floats, nil against empty slices and
// maps, and the omitempty fields both ways. A NaN is an error, as it is
// to encoding/json.
func TestEncodePlanEdgeCases(t *testing.T) {
	odd := "tab\t nl\n cr\r bs\b ff\f nul\x00 esc\x1b del\x7f quote\" back\\ <b>&amp; \xff\xfe bad \u2028 \u2029 é 日本 😀"
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999e20, 1e21, 123456789.125, 5e-324, math.MaxFloat64, -2.5e-9, 1.0 / 3} {
		plan := &Plan{
			CanonicalSource: odd,
			Strategy:        "selective{<A>&B}",
			Processors:      16,
			Partition: partition.Info{Strategy: odd, PsiBasis: [][]int64{{1, -2}, nil, {}}, EliminatedIterations: 3,
				Arrays: map[string]partition.ArrayInfo{"B": {CopyFactor: f}, "A": {Basis: [][]int64{}, Duplicated: true, CopyFactor: -f}, "é": {}}},
			Transform:  transform.Info{Names: []string{"i'", ""}, Program: odd},
			Assignment: assign.Info{GridDims: []int{}, Workloads: []int64{}, Imbalance: f, Blocks: []assign.BlockOwner{{Forall: []int64{}}, {Forall: []int64{-1, 7}, Processor: 3}}},
			Predicted:  &selector.Candidate{Label: odd, Strategy: partition.Mars, Duplicated: []string{"A"}, Total: f},
			Ranking:    []selector.Candidate{{Strategy: partition.Selective, DistributionTime: f, ComputeTime: 1 / (f + 1)}, {}},
			SPMDGo:     odd,
		}
		for _, p := range []*Plan{plan, {}} {
			got, err := encodePlan(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleJSON(t, p); !bytes.Equal(got, want) {
				t.Fatalf("float %v: the encoder and encoding/json differ\n got %s\nwant %s", f, got, want)
			}
		}
	}
	if _, err := encodePlan(&Plan{Assignment: assign.Info{Imbalance: math.NaN()}}); err == nil {
		t.Error("a NaN encoded without an error")
	}
}
