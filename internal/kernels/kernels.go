// Package kernels is a gallery of the scientific kernels the paper's
// UPPER project evaluates ("matrix multiplication, discrete Fourier
// transform, convolution, some basic linear algebra programs"), written
// in the loop DSL. Each kernel documents what the four partitioning
// strategies achieve on it, and the test suite pins those outcomes —
// making the gallery both user documentation and integration coverage.
package kernels

import (
	"fmt"
	"sort"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/partition"
)

// Kernel is one gallery entry.
type Kernel struct {
	Name   string
	Source string
	// About summarizes the expected partitioning behavior.
	About string
}

// All returns the gallery in name order.
func All() []Kernel {
	ks := []Kernel{
		{
			Name: "saxpy",
			About: "Element-wise update: every iteration independent; fully " +
				"parallel under every strategy.",
			Source: `
for i = 1 to 16
  Y[i] = Y[i] + 2 * X[i]
end
`,
		},
		{
			Name: "transpose",
			About: "B[j,i] = A[i,j]: no element is shared between iterations; " +
				"fully parallel even without duplication.",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    B[j,i] = A[i,j]
  end
end
`,
		},
		{
			Name: "matmul",
			About: "C[i,j] += A[i,k]·B[k,j] (the paper's L5): sequential " +
				"without duplication; duplicating A and B exposes one block " +
				"per C tile.",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    for k = 1 to 4
      C[i,j] = C[i,j] + A[i,k] * B[k,j]
    end
  end
end
`,
		},
		{
			Name: "conv1d",
			About: "Sliding-window convolution: overlapping X windows tie " +
				"outputs together without duplication; duplicating X and W " +
				"gives one block per output.",
			Source: `
for i = 1 to 12
  for k = 1 to 4
    Y[i] = Y[i] + X[i+k-1] * W[k]
  end
end
`,
		},
		{
			Name: "conv2d",
			About: "2-D convolution with a 3×3 kernel: same structure as " +
				"conv1d one dimension up; duplicate strategy yields one block " +
				"per output pixel.",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    for ki = 1 to 3
      for kj = 1 to 3
        Y[i,j] = Y[i,j] + X[i+ki-1, j+kj-1] * W[ki,kj]
      end
    end
  end
end
`,
		},
		{
			Name: "dft",
			About: "Naive DFT: output bins accumulate over all inputs; " +
				"duplicating the input vector gives one block per bin.",
			Source: `
for k = 1 to 8
  for n = 1 to 8
    R[k] = R[k] + X[n] * T[k,n]
  end
end
`,
		},
		{
			Name: "jacobi",
			About: "Five-point relaxation into a fresh array: the shared reads " +
				"of A serialize the non-duplicate partition, but A is read-only " +
				"so duplication recovers full parallelism.",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    B[i,j] = A[i-1,j] + A[i+1,j] + A[i,j-1] + A[i,j+1]
  end
end
`,
		},
		{
			Name: "gauss-seidel",
			About: "In-place wavefront recurrence: true flow dependences in " +
				"two directions leave no communication-free parallelism under " +
				"any strategy (the honest negative case).",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    A[i,j] = A[i-1,j] + A[i,j-1]
  end
end
`,
		},
		{
			Name: "row-scale",
			About: "Scale each row by a per-row factor: rows are independent; " +
				"one block per row without duplication.",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    A[i,j] = A[i,j] * S[i]
  end
end
`,
		},
		{
			Name: "reverse-copy",
			About: "B[i] = A[17-i]: a reflected read; uniform per array, " +
				"no sharing at all — fully parallel even without duplication.",
			Source: `
for i = 1 to 16
  B[i] = A[17-i] * 2
end
`,
		},
		{
			Name: "wavefront-diamond",
			About: "Two diagonal flow dependences (1,1) and (1,-1): the " +
				"dependence cone spans the plane, so no strategy finds " +
				"communication-free parallelism (a second honest negative).",
			Source: `
for i = 1 to 4
  for j = 1 to 4
    A[i,j] = A[i-1,j-1] + A[i-1,j+1]
  end
end
`,
		},
		{
			Name: "blocked-outer",
			About: "Independent outer chunks with an inner recurrence: the " +
				"flow dependence (0,1) confines each row, one block per row " +
				"under every strategy.",
			Source: `
for i = 1 to 8
  for j = 1 to 4
    A[i,j] = A[i,j-1] + S[i]
  end
end
`,
		},
		{
			Name: "strided-stencil",
			About: "A stride-2 recurrence, exercising step normalization " +
				"before partitioning.",
			Source: `
for i = 0 to 14 step 2
  for j = 1 to 4
    A[i,j] = A[i-2,j] + 1
  end
end
`,
		},
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Name < ks[j].Name })
	return ks
}

// Nest parses the kernel's source.
func (k Kernel) Nest() (*loop.Nest, error) { return lang.Parse(k.Source) }

// Outcome is the partitioning result summary of one strategy.
type Outcome struct {
	Strategy  partition.Strategy
	Blocks    int
	VerifyErr error // nil: the partition verified communication-free
}

// Outcomes partitions the kernel under all four strategies and verifies
// each result.
func (k Kernel) Outcomes() ([]Outcome, error) {
	nest, err := k.Nest()
	if err != nil {
		return nil, err
	}
	var out []Outcome
	for _, s := range []partition.Strategy{
		partition.NonDuplicate, partition.Duplicate,
		partition.MinimalNonDuplicate, partition.MinimalDuplicate,
	} {
		res, err := partition.Compute(nest, s)
		if err != nil {
			return nil, fmt.Errorf("kernels: %s under %s: %w", k.Name, s, err)
		}
		out = append(out, Outcome{Strategy: s, Blocks: res.Iter.NumBlocks(), VerifyErr: res.Verify()})
	}
	return out, nil
}
