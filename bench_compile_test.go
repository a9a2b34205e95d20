package commfree

// BenchmarkCompileCold is the compile pipeline's size axis: one cold
// Service.Compile — parse, one evaluation context, every candidate class
// priced, verify, codegen — on a fresh service per op (construction and
// shutdown included; they are microseconds), over two families × three
// extents × a pinned coset strategy, the selector's choice, and MARS.
// scripts/bench_compile.sh records it in BENCH_compile.json and gates CI
// on it.

import (
	"context"
	"fmt"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/service"
)

func BenchmarkCompileCold(b *testing.B) {
	stencil := func(e int64) *loop.Nest {
		n := loop.L4()
		for k := range n.Levels {
			n.Levels[k].Upper = loop.ConstAffine(3, e)
		}
		return n
	}
	for _, fam := range []struct {
		name string
		nest func(int64) *loop.Nest
	}{{"matmul", loop.L5}, {"stencil", stencil}} {
		for _, extent := range []int64{8, 16, 32} {
			src := lang.Format(fam.nest(extent))
			for _, strategy := range []string{"duplicate", "auto", "mars"} {
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
