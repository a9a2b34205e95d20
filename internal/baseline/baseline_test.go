package baseline

import (
	"strings"
	"testing"

	"commfree/internal/loop"
	"commfree/internal/partition"
)

// forallLoop is a genuine For-all loop: no loop-carried flow dependence,
// reads and writes to distinct arrays.
//
//	for i = 1 to 4; for j = 1 to 4:
//	  A[i,j] = B[i-1,j-1] + B[i-1,j]
func forallLoop() *loop.Nest {
	id := [][]int64{{1, 0}, {0, 1}}
	return &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
		},
		Body: []*loop.Statement{{
			Write: loop.Ref{Array: "A", H: id, Offset: []int64{0, 0}},
			Reads: []loop.Ref{
				{Array: "B", H: id, Offset: []int64{-1, -1}},
				{Array: "B", H: id, Offset: []int64{-1, 0}},
			},
		}},
	}
}

func TestHyperplaneOnForallLoop(t *testing.T) {
	r, err := Hyperplane(forallLoop())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Applicable || !r.Found {
		t.Fatalf("result = %s", r)
	}
	// B's data-referenced vector is (0,1); w ⟂ (0,1) gives g = (1,0):
	// row hyperplanes, 4 blocks.
	if r.G[0] == 0 {
		t.Errorf("g = %v, want i-direction normal", r.G)
	}
	if r.G[1] != 0 {
		t.Errorf("g = %v, want (±1,0)", r.G)
	}
	if r.NumBlocks != 4 {
		t.Errorf("blocks = %d, want 4", r.NumBlocks)
	}
	// The induced partition must be communication-free (non-duplicate
	// criterion: every element confined to one block).
	ix, err := loop.NewIndex(forallLoop())
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.PartitionIterations(ix, r.Psi)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.VerifyCommunicationFree(p, false, nil); err != nil {
		t.Errorf("hyperplane partition not communication-free: %v", err)
	}
}

func TestL1NotApplicable(t *testing.T) {
	// Paper: "Because loop L1 is not a For-all loop, Ramanaujam and
	// Sadayappan's method cannot solve it in parallel execution."
	r, err := Hyperplane(loop.L1())
	if err != nil {
		t.Fatal(err)
	}
	if r.Applicable {
		t.Error("L1 reported applicable (it carries a flow dependence)")
	}
	if !strings.Contains(r.String(), "not applicable") {
		t.Errorf("String = %q", r.String())
	}
}

func TestL4L5NotApplicable(t *testing.T) {
	for name, n := range map[string]*loop.Nest{"L4": loop.L4(), "L5": loop.L5(4)} {
		r, err := Hyperplane(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Applicable {
			t.Errorf("%s reported applicable", name)
		}
	}
}

func TestL2OursBeatsHyperplane(t *testing.T) {
	// L2 has no flow dependence, so it is a For-all loop — but the
	// hyperplane method finds no communication-free hyperplane (array A's
	// data-referenced vectors span the whole data space), while the
	// paper's duplicate strategy exposes all 16 iterations in parallel.
	r, err := Hyperplane(loop.L2())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Applicable {
		t.Fatal("L2 should be applicable (no flow dependence)")
	}
	if r.Found {
		t.Fatalf("hyperplane found for L2: %s", r)
	}
	ours, err := partition.Compute(loop.L2(), partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	if ours.Iter.NumBlocks() != 16 {
		t.Errorf("our blocks = %d", ours.Iter.NumBlocks())
	}
}

func TestForallHigherParallelismThanHyperplane(t *testing.T) {
	// A loop with no cross-iteration sharing at all: our method yields
	// dim(Ψ)=0 (16 blocks); the hyperplane method is capped at one
	// hyperplane family (4 blocks). This is the "dim(Ψ) < n−1 exploits
	// more parallelism" claim of Section III.A.
	id := [][]int64{{1, 0}, {0, 1}}
	n := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
		},
		Body: []*loop.Statement{{
			Write: loop.Ref{Array: "A", H: id, Offset: []int64{0, 0}},
			Reads: []loop.Ref{{Array: "B", H: id, Offset: []int64{0, 0}}},
		}},
	}
	r, err := Hyperplane(n)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Applicable || !r.Found {
		t.Fatalf("hyperplane result = %s", r)
	}
	if r.NumBlocks != 4 {
		t.Errorf("hyperplane blocks = %d, want 4", r.NumBlocks)
	}
	ours, err := partition.Compute(n, partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	if ours.Iter.NumBlocks() != 16 {
		t.Errorf("our blocks = %d, want 16", ours.Iter.NumBlocks())
	}
	if ours.Iter.NumBlocks() <= r.NumBlocks {
		t.Error("our method should expose strictly more parallelism here")
	}
}

func TestResultString(t *testing.T) {
	r, _ := Hyperplane(forallLoop())
	if !strings.Contains(r.String(), "hyperplane g=") {
		t.Errorf("String = %q", r.String())
	}
	r, _ = Hyperplane(loop.L2())
	if !strings.Contains(r.String(), "no communication-free hyperplane") {
		t.Errorf("String = %q", r.String())
	}
}
