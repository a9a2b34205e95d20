package kernels

import (
	"strings"
	"testing"

	"commfree/internal/exec"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// expected pins (non-duplicate blocks, duplicate blocks) per kernel.
var expected = map[string]struct {
	nonDup, dup int
}{
	"saxpy":             {16, 16},
	"transpose":         {16, 16},
	"matmul":            {1, 16},
	"conv1d":            {1, 12},
	"conv2d":            {1, 16},
	"dft":               {1, 8},
	"jacobi":            {1, 16},
	"gauss-seidel":      {1, 1},
	"row-scale":         {4, 16},
	"strided-stencil":   {4, 4},
	"reverse-copy":      {16, 16},
	"wavefront-diamond": {1, 1},
	"blocked-outer":     {8, 8},
}

func TestGalleryOutcomes(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			want, ok := expected[k.Name]
			if !ok {
				t.Fatalf("kernel %s missing expected outcome — add it to the table", k.Name)
			}
			outs, err := k.Outcomes()
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 4 {
				t.Fatalf("outcomes = %d", len(outs))
			}
			for _, o := range outs {
				if o.VerifyErr != nil {
					t.Errorf("%s under %s failed verification: %v", k.Name, o.Strategy, o.VerifyErr)
				}
			}
			if outs[0].Blocks != want.nonDup {
				t.Errorf("non-duplicate blocks = %d, want %d", outs[0].Blocks, want.nonDup)
			}
			if outs[1].Blocks != want.dup {
				t.Errorf("duplicate blocks = %d, want %d", outs[1].Blocks, want.dup)
			}
			// Monotonicity: duplication never reduces parallelism; minimal
			// variants never reduce it either.
			if outs[1].Blocks < outs[0].Blocks {
				t.Error("duplicate fewer blocks than non-duplicate")
			}
			if outs[2].Blocks < outs[0].Blocks || outs[3].Blocks < outs[1].Blocks {
				t.Error("minimal variant lost parallelism")
			}
		})
	}
}

func TestGalleryCoverage(t *testing.T) {
	if len(All()) != len(expected) {
		t.Fatalf("gallery has %d kernels, expectations cover %d", len(All()), len(expected))
	}
}

func TestGalleryExecutesCorrectly(t *testing.T) {
	// Every kernel, partitioned with the duplicate strategy, must execute
	// on the simulated machine with zero communication and a final state
	// identical to sequential execution.
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			nest, err := k.Nest()
			if err != nil {
				t.Fatal(err)
			}
			res, err := partition.Compute(nest, partition.Duplicate)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := exec.Parallel(res, 4, machine.Transputer())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Machine.InterNodeMessages() != 0 {
				t.Error("communication during execution")
			}
			want := exec.Sequential(nest, nil)
			if err := exec.Equal(want, rep.Final); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestNonUniformKernelsRejected(t *testing.T) {
	// The model (and the paper) covers uniformly generated references
	// only: all references to one array must share the linear part H.
	// Classic kernels that violate this are rejected up front with a
	// clear diagnostic — documenting the technique's boundary.
	cases := map[string]string{
		// LU elimination step: A[i,j], A[i,k], A[k,j] have three distinct
		// reference matrices.
		"lu": `
for k = 1 to 4
  for i = 1 to 4
    for j = 1 to 4
      A[i,j] = A[i,j] - A[i,k] * A[k,j]
    end
  end
end
`,
		// Transposed self-reference: A[i,j] vs A[j,i].
		"symmetrize": `
for i = 1 to 4
  for j = 1 to 4
    A[i,j] = A[j,i] + 1
  end
end
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			k := Kernel{Name: name, Source: src}
			if _, err := k.Nest(); err == nil {
				t.Fatal("non-uniform kernel accepted")
			} else if !strings.Contains(err.Error(), "uniformly generated") {
				t.Errorf("diagnostic = %q", err.Error())
			}
		})
	}
}

func TestGalleryAboutText(t *testing.T) {
	for _, k := range All() {
		if k.About == "" || k.Source == "" {
			t.Errorf("kernel %s missing documentation or source", k.Name)
		}
	}
}
