package exec

// Targeted edge cases for expression evaluation and kernel lowering:
// the differential corpus sweeps broadly, but these nests pin the
// specific shapes that have bitten dense engines before — negative
// strides and offsets in subscripts, empty iteration ranges, RHS
// reading the cell being written, division, and the compile-cap
// overflow paths (exercised by shrinking the caps, which is why they
// are variables).

import (
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// TestKernelEdgeCases runs each nest through the full differential
// harness: oracle vs kernel, all strategies, both machine
// sizes, two kernel rounds (recycled arena).
func TestKernelEdgeCases(t *testing.T) {
	cases := []struct{ name, src string }{
		{"negative_stride", "for i = 1 to 6\n  B[8-2i] = A[8-i]\nend\n"},
		{"negative_stride_2d", "for i = 1 to 4\n  for j = 1 to 4\n    B[5-i, j] = A[5-i, j] + A[4-i, j-1]\n  end\nend\n"},
		{"negative_offset", "for i = 1 to 5\n  A[i-9] = C[i-7] * 3\nend\n"},
		{"self_reference", "for i = 1 to 8\n  A[i] = A[i] * A[i]\nend\n"},
		{"self_recurrence", "for i = 2 to 9\n  A[i] = A[i-1] + A[i]\nend\n"},
		{"division", "for i = 1 to 6\n  for j = 1 to 6\n    Q[i,j] = A[i,j] / B[j,i]\n  end\nend\n"},
		{"single_point", "for i = 3 to 3\n  A[i] = A[i] + A[i]\nend\n"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nest, err := lang.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			diffNest(t, nest, tc.name)
		})
	}
}

// TestKernelZeroIterations: an empty iteration range must specialize
// and run to an empty final state on every engine, not trip bounds
// math (the kernel's fused bounds come from materialized blocks, so an
// empty space means zero blocks, zero write ranges).
func TestKernelZeroIterations(t *testing.T) {
	for _, src := range []string{
		"for i = 5 to 2\n  A[i] = A[i] + A[i]\nend\n",
		"for i = 1 to 3\n  for j = i to i-1\n    A[i,j] = A[i,j-1] + A[i-1,j]\n  end\nend\n",
	} {
		nest, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := nest.Validate(); err != nil {
			// An engine never sees an invalid nest; nothing to check.
			continue
		}
		if got := Sequential(nest, nil); len(got) != 0 {
			t.Fatalf("sequential state has %d elements for an empty space", len(got))
		}
		res, err := partition.Compute(nest, partition.Duplicate)
		if err != nil {
			continue // strategy inapplicable; the oracle check above stands
		}
		prog, err := CompileNest(res.Analysis.Nest, res.Redundant)
		if err != nil {
			t.Fatalf("CompileNest: %v", err)
		}
		if got := prog.Sequential(); len(got) != 0 {
			t.Errorf("dense sequential state has %d elements", len(got))
		}
		kern, err := prog.Specialize(res, 4)
		if err != nil {
			t.Fatalf("Specialize: %v", err)
		}
		rep, err := kern.Run(machine.Transputer(), Options{})
		if err != nil {
			t.Fatalf("kernel run: %v", err)
		}
		if len(rep.Final) != 0 {
			t.Errorf("kernel final state has %d elements", len(rep.Final))
		}
	}
}

// TestCompileCapOverflow drives each compile cap to a value a small
// nest exceeds and demands the descriptive error (the oracle-fallback
// contract: CompileNest fails loudly, callers degrade gracefully).
func TestCompileCapOverflow(t *testing.T) {
	nest := lang.MustParse("for i = 1 to 4\n  for j = 1 to 4\n    B[i,j] = A[i,j] + A[i-1,j]\n    C[i,j] = B[i,j] + A[i,j-1]\n  end\nend\n")
	res, err := partition.Compute(nest, partition.MinimalDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cap  *int64
		val  int64
		want string
	}{
		{"array_cells", &maxArrayCells, 8, "dense cells"},
		{"total_cells", &maxTotalCells, 20, "combined array footprint"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			old := *tc.cap
			*tc.cap = tc.val
			defer func() { *tc.cap = old }()
			_, err := CompileNest(res.Analysis.Nest, res.Redundant)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	// With the caps restored the same nest compiles and matches the
	// oracle — the overrides must leave no residue.
	prog, err := CompileNest(res.Analysis.Nest, res.Redundant)
	if err != nil {
		t.Fatalf("CompileNest after restore: %v", err)
	}
	if err := Equal(prog.Sequential(), Sequential(nest, nil)); err != nil {
		t.Fatalf("post-restore divergence: %v", err)
	}
}
