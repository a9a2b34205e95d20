package commfree

// BenchmarkCompileCold is the compile pipeline's size axis: one cold
// Service.Compile — parse, one evaluation context, every candidate class
// priced, verify, codegen — on a fresh service per op (construction and
// shutdown included; they are microseconds). Matmul (L5) and stencil (L4)
// run at three extents under a pinned coset strategy, the selector's
// choice and MARS; the two-statement (L1) and redundant (L3) families run
// at two under the strategy the benchmark's compile-cold workload gives
// them. scripts/bench_compile.sh records it in BENCH_compile.json and
// gates CI on it.

import (
	"context"
	"fmt"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/service"
)

func BenchmarkCompileCold(b *testing.B) {
	// widen sets every upper bound of a paper loop to the extent.
	widen := func(paper func() *loop.Nest) func(int64) *loop.Nest {
		return func(e int64) *loop.Nest {
			n := paper()
			for k := range n.Levels {
				n.Levels[k].Upper = loop.ConstAffine(n.Depth(), e)
			}
			return n
		}
	}
	for _, fam := range []struct {
		name       string
		nest       func(int64) *loop.Nest
		extents    []int64
		strategies []string
	}{
		{"matmul", loop.L5, []int64{8, 16, 32}, []string{"duplicate", "auto", "mars"}},
		{"stencil", widen(loop.L4), []int64{8, 16, 32}, []string{"duplicate", "auto", "mars"}},
		{"twostmt", widen(loop.L1), []int64{16, 32}, []string{"minimal-duplicate"}},
		{"redundant", widen(loop.L3), []int64{16, 32}, []string{"mars"}},
	} {
		for _, extent := range fam.extents {
			src := lang.Format(fam.nest(extent))
			for _, strategy := range fam.strategies {
				b.Run(fmt.Sprintf("%s/%d/%s", fam.name, extent, strategy), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						s := service.New(service.Config{})
						_, err := s.Compile(context.Background(), service.CompileRequest{Source: src, Strategy: strategy, Processors: 16})
						s.Close()
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
