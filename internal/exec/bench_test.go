package exec

// Benchmarks comparing the map-based oracle with the dense sequential
// reference and the kernel engine on the paper's matmul nest (L5) plus
// stencil and convolution kernels. Partitioning, compilation and
// specialization happen outside the timed loop: the subject is the
// executor, not the planner. BENCH_exec.json records the trajectory.

import (
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/obs"
	"commfree/internal/partition"
)

const benchStencilSrc = `
for i = 1 to 24
  for j = 1 to 24
    B[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1]
  end
end
`

const benchConvSrc = `
for i = 1 to 12
  for j = 1 to 12
    for ki = 1 to 3
      for kj = 1 to 3
        Y[i,j] = Y[i,j] + X[i+ki-1, j+kj-1] * W[ki,kj]
      end
    end
  end
end
`

type benchCase struct {
	name string
	nest *loop.Nest
	res  *partition.Result
	prog *Program
	kern *Kernel
}

func benchCases(b *testing.B) []benchCase {
	b.Helper()
	cases := []benchCase{
		{name: "matmul", nest: loop.L5(12)},
		{name: "stencil", nest: lang.MustParse(benchStencilSrc)},
		{name: "conv2d", nest: lang.MustParse(benchConvSrc)},
	}
	for i := range cases {
		res, err := partition.Compute(cases[i].nest, partition.Duplicate)
		if err != nil {
			b.Fatalf("%s: %v", cases[i].name, err)
		}
		prog, err := CompileNest(res.Analysis.Nest, res.Redundant)
		if err != nil {
			b.Fatalf("%s: %v", cases[i].name, err)
		}
		kern, err := prog.Specialize(res, 16)
		if err != nil {
			b.Fatalf("%s: %v", cases[i].name, err)
		}
		cases[i].res, cases[i].prog, cases[i].kern = res, prog, kern
	}
	return cases
}

func BenchmarkExecSequential(b *testing.B) {
	for _, c := range benchCases(b) {
		b.Run(c.name+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(Sequential(c.nest, nil)) == 0 {
					b.Fatal("empty state")
				}
			}
		})
		// "compiled" is Program.Sequential, the dense reference; the
		// row name is kept so the BENCH_exec.json trajectory lines up.
		b.Run(c.name+"/compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(c.prog.Sequential()) == 0 {
					b.Fatal("empty state")
				}
			}
		})
	}
}

func BenchmarkExecParallel(b *testing.B) {
	cost := machine.Transputer()
	const p = 16
	for _, c := range benchCases(b) {
		b.Run(c.name+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parallel(c.res, p, cost); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.kern.Run(cost, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecParallelTraced is BenchmarkExecParallel/kernel with a
// live trace attached — the instrumentation-overhead benchmark. The
// acceptance bound is ns/op within 5% of the untraced BENCH_exec.json
// snapshot (block spans are recorded lock-free into preallocated slots
// and published with one Bulk call, so the delta is two allocations).
func BenchmarkExecParallelTraced(b *testing.B) {
	cost := machine.Transputer()
	const p = 16
	for _, c := range benchCases(b) {
		b.Run(c.name+"/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trc := obs.New("bench")
				root := trc.Start(0, "exec_run")
				if _, err := c.kern.Run(cost, Options{Trace: trc, Parent: root.ID()}); err != nil {
					b.Fatal(err)
				}
				root.End()
			}
		})
	}
}
