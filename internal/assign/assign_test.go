package assign

import (
	"fmt"
	"testing"

	"commfree/internal/loop"
	"commfree/internal/space"
	"commfree/internal/transform"
)

func l4Transformed(t *testing.T) *transform.Transformed {
	t.Helper()
	psi := space.Span(3, []int64{1, -1, 1})
	tr, err := transform.TransformWithBasis(loop.L4(), psi, [][]int64{{1, 1, 0}, {-1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFactor(t *testing.T) {
	cases := []struct {
		p, k int
		want []int
	}{
		{4, 2, []int{2, 2}},
		{16, 2, []int{4, 4}},
		{16, 1, []int{16}},
		{8, 3, []int{2, 2, 2}},
		{27, 3, []int{3, 3, 3}},
		{12, 2, []int{3, 4}},
		{5, 2, []int{2, 2}},
		{1, 2, []int{1, 1}},
		{7, 1, []int{7}},
	}
	for _, c := range cases {
		got := Factor(c.p, c.k)
		if len(got) != len(c.want) {
			t.Errorf("Factor(%d,%d) = %v, want %v", c.p, c.k, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("Factor(%d,%d) = %v, want %v", c.p, c.k, got, c.want)
				break
			}
		}
	}
	if Factor(4, 0) != nil {
		t.Error("Factor with k=0 should be nil")
	}
}

func TestFig10Workloads(t *testing.T) {
	// Fig. 10: L4′ on 4 processors (2×2 grid) — every processor executes
	// exactly 16 iterations.
	a := Assign(l4Transformed(t), 4)
	if a.NumProcessors() != 4 {
		t.Fatalf("processors = %d", a.NumProcessors())
	}
	loads := a.Workloads()
	var total int64
	for id, l := range loads {
		if l != 16 {
			t.Errorf("PE%d load = %d, want 16", id, l)
		}
		total += l
	}
	if total != 64 {
		t.Errorf("total = %d, want 64", total)
	}
	if a.Imbalance() != 0 {
		t.Errorf("imbalance = %v, want 0", a.Imbalance())
	}
}

func TestOwnerCyclic(t *testing.T) {
	a := Assign(l4Transformed(t), 4)
	// Neighboring forall points along each axis land on different
	// processors (mod distribution).
	c1 := a.OwnerCoords([]int64{2, 0})
	c2 := a.OwnerCoords([]int64{3, 0})
	if c1[0] == c2[0] {
		t.Error("adjacent i1' blocks share the first grid coordinate")
	}
	c3 := a.OwnerCoords([]int64{2, 1})
	if c1[1] == c3[1] {
		t.Error("adjacent i2' blocks share the second grid coordinate")
	}
	// Negative keys map canonically.
	c := a.OwnerCoords([]int64{2, -3})
	if c[1] < 0 || c[1] > 1 {
		t.Errorf("negative key coords = %v", c)
	}
}

func TestOwnerIDConsistentWithBlocksOf(t *testing.T) {
	a := Assign(l4Transformed(t), 4)
	seen := map[string]bool{}
	for id := 0; id < a.NumProcessors(); id++ {
		for _, f := range a.BlocksOf(id) {
			key := fmt.Sprint(f)
			if seen[key] {
				t.Fatalf("forall point %v owned twice", f)
			}
			seen[key] = true
			if a.OwnerID(f) != id {
				t.Errorf("OwnerID(%v) = %d, want %d", f, a.OwnerID(f), id)
			}
		}
	}
	if len(seen) != 37 {
		t.Errorf("assigned blocks = %d, want 37", len(seen))
	}
}

func TestSequentialAssignment(t *testing.T) {
	tr, err := transform.Transform(loop.L2(), space.Full(2))
	if err != nil {
		t.Fatal(err)
	}
	a := Assign(tr, 8)
	if a.NumProcessors() != 1 {
		t.Errorf("sequential loop should use one processor, got %d", a.NumProcessors())
	}
	loads := a.Workloads()
	if len(loads) != 1 || loads[0] != 16 {
		t.Errorf("loads = %v", loads)
	}
}

func TestMoreProcessorsThanBlocks(t *testing.T) {
	// L1's 7 diagonal blocks on 16 processors: at most 7 busy.
	res := spanPsiL1(t)
	a := Assign(res, 16)
	loads := a.Workloads()
	busy := 0
	var total int64
	for _, l := range loads {
		if l > 0 {
			busy++
		}
		total += l
	}
	if busy > 7 {
		t.Errorf("busy processors = %d > 7 blocks", busy)
	}
	if total != 16 {
		t.Errorf("total iterations = %d", total)
	}
}

func spanPsiL1(t *testing.T) *transform.Transformed {
	t.Helper()
	tr, err := transform.Transform(loop.L1(), space.Span(2, []int64{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestL1CyclicBalance(t *testing.T) {
	// 7 blocks of sizes 1,2,3,4,3,2,1 on 2 processors: cyclic assignment
	// alternates blocks, loads 8/8.
	a := Assign(spanPsiL1(t), 2)
	loads := a.Workloads()
	if len(loads) != 2 || loads[0]+loads[1] != 16 {
		t.Fatalf("loads = %v", loads)
	}
	if loads[0] != 8 || loads[1] != 8 {
		t.Errorf("loads = %v, want perfectly balanced 8/8", loads)
	}
}

func TestSummary(t *testing.T) {
	a := Assign(l4Transformed(t), 4)
	s := a.Summary()
	if s == "" || a.Imbalance() != 0 {
		t.Errorf("summary = %q imbalance = %v", s, a.Imbalance())
	}
}
