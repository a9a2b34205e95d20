package service

// Execute-path benchmarks. Feed BENCH_exec.json beside the executor rows:
//
//	scripts/bench_exec.sh append|gate

import (
	"context"
	"fmt"
	"testing"

	"commfree/internal/exec"
	"commfree/internal/machine"
)

// BenchmarkExecuteRevived is the first execute of a stored plan: the
// memory cache is cold, so the request reads the record, revives the
// partition from its Ψ, builds the program, kernel and dense reference,
// runs and validates. One fresh service per iteration over a
// pre-populated store directory.
func BenchmarkExecuteRevived(b *testing.B) {
	dir := b.TempDir()
	req := ExecuteRequest{CompileRequest: CompileRequest{Source: matmulSource(8), Strategy: "duplicate", Processors: 16}}
	seed, err := NewWithStore(Config{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Compile(context.Background(), req.CompileRequest); err != nil {
		b.Fatal(err)
	}
	seed.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewWithStore(Config{StoreDir: dir, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		resp, err := s.Execute(context.Background(), req)
		if err != nil || !resp.Validated {
			b.Fatalf("%+v, %v", resp, err)
		}
		b.StopTimer()
		if s.Metrics().Counter("compiles") != 0 {
			b.Fatal("a revived execute ran a full compile")
		}
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkExecuteWarm is a cache-hot Service.Execute of the M³ matrix
// product (service) beside Kernel.Run of the same cached kernel
// (kernel): what a warm request adds to the kernel it runs.
func BenchmarkExecuteWarm(b *testing.B) {
	for _, m := range []int{16, 32, 64} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			s := New(Config{Workers: 1})
			defer s.Close()
			req := ExecuteRequest{CompileRequest: CompileRequest{Source: matmulSource(m), Strategy: "duplicate", Processors: 16}}
			if resp, err := s.Execute(context.Background(), req); err != nil || !resp.Validated {
				b.Fatalf("%d³: %+v, %v", m, resp, err)
			}
			entry, _, err := s.compileEntry(context.Background(), req.CompileRequest, nil)
			if err != nil {
				b.Fatal(err)
			}
			kern, err := entry.comp.kernel.get(context.Background(), s, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("service", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Execute(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("kernel", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kern.Run(machine.Transputer(), exec.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
