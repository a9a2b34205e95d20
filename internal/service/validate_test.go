package service

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"
)

// matmulSource is the M³ matrix product.
func matmulSource(m int) string {
	return fmt.Sprintf("for i = 1 to %d\n for j = 1 to %d\n  for k = 1 to %d\n   C[i, j] = C[i, j] + A[i, k] * B[k, j]\n  end\n end\nend", m, m, m)
}

// TestWarmExecuteAllocatesNothingPerElement: a warm kernel execute —
// cache hit, kernel run, dense verdict — allocates the same at 8³, 16³
// and 32³. (A keyed Final of 32² elements outgrows one map table, which
// 8² and 16² do not.) The collector is off while counting: it empties
// the pools the service and the runtime recycle through.
func TestWarmExecuteAllocatesNothingPerElement(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not exact under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newTestService(t, Config{Workers: 1})
	sizes := []int{8, 16, 32}
	allocs := map[int]float64{}
	for _, m := range sizes {
		req := ExecuteRequest{CompileRequest: CompileRequest{Source: matmulSource(m), Strategy: "non-duplicate", Processors: 16}}
		execute := func() {
			resp, err := s.Execute(context.Background(), req)
			if err != nil || !resp.Validated || resp.Engine != "kernel" {
				t.Fatalf("%d³: %+v, %v", m, resp, err)
			}
		}
		execute()
		allocs[m] = testing.AllocsPerRun(20, execute)
	}
	for _, m := range sizes[1:] {
		if allocs[m] != allocs[sizes[0]] {
			t.Errorf("warm execute allocates %v at %d³ and %v at %d³", allocs[sizes[0]], sizes[0], allocs[m], m)
		}
	}
}
