package distplan

import (
	"strings"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/exec"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

func TestL5DoublePrimePlanDiscoversMulticast(t *testing.T) {
	// L5 under the duplicate strategy on 4 processors: blocks are (i,j)
	// points assigned cyclically to a 2×2 grid. Rows of A are shared by
	// the processors holding the same i-congruence, columns of B by the
	// same j-congruence — the planner must discover multicast groups, as
	// Section IV does by hand.
	res, err := partition.Compute(loop.L5(4), partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildFor(res, assign.Place(res.Iter.Q, 4))
	st := plan.Stats()
	if st.Multicasts == 0 {
		t.Errorf("no multicast groups discovered:\n%s", plan)
	}
	// A and B elements are shared (multicast); C chains are private
	// (unicast).
	if st.Unicasts == 0 {
		t.Errorf("no unicast groups for private C data:\n%s", plan)
	}
}

func TestBroadcastDiscovered(t *testing.T) {
	// A loop where every processor reads the same element: W[1] in a
	// convolution-style kernel with one weight.
	id := [][]int64{{1, 0}}
	n := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 8)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 2)},
		},
		Body: []*loop.Statement{{
			Write: loop.Ref{Array: "Y", H: id, Offset: []int64{0}},
			Reads: []loop.Ref{
				{Array: "X", H: id, Offset: []int64{0}},
				{Array: "W", H: [][]int64{{0, 0}}, Offset: []int64{1}},
			},
		}},
	}
	res, err := partition.Compute(n, partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildFor(res, assign.Place(res.Iter.Q, 4))
	if plan.Stats().Broadcasts == 0 {
		t.Errorf("W[1] should be broadcast:\n%s", plan)
	}
}

func TestParallelPlannedMatchesSequential(t *testing.T) {
	cases := []struct {
		name  string
		nest  *loop.Nest
		strat partition.Strategy
		p     int
	}{
		{"L1 non-dup", loop.L1(), partition.NonDuplicate, 4},
		{"L2 dup", loop.L2(), partition.Duplicate, 4},
		{"L3 minimal dup", loop.L3(), partition.MinimalDuplicate, 4},
		{"L5 dup", loop.L5(4), partition.Duplicate, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := partition.Compute(c.nest, c.strat)
			if err != nil {
				t.Fatal(err)
			}
			rep, plan, err := ParallelPlanned(res, c.p, machine.Transputer())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Machine.InterNodeMessages() != 0 {
				t.Error("communication during execution")
			}
			want := exec.Sequential(c.nest, nil)
			if err := exec.Equal(want, rep.Final); err != nil {
				t.Errorf("%v\nplan:\n%s", err, plan)
			}
		})
	}
}

func TestPlannedDistributionCheaperWhenShared(t *testing.T) {
	// When data is widely shared (L5 duplicate) and groups are larger
	// than the startup-equivalent word count, multicast grouping must
	// beat the per-node unicast distribution of exec.Parallel in
	// distribution time. M = 16 makes each shared row/column group 128
	// words on 4 processors.
	res, err := partition.Compute(loop.L5(16), partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	// Make startup negligible relative to per-word cost so the word
	// savings of multicast grouping dominates, as at the paper's M=256.
	cost := machine.CostModel{TComp: 9.611e-6, TStart: 5e-5, TComm: 2.3e-6}
	planned, plan, err := ParallelPlanned(res, 4, cost)
	if err != nil {
		t.Fatal(err)
	}
	unicast, err := exec.Parallel(res, 4, cost)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Machine.DataMoved() > unicast.Machine.DataMoved() {
		t.Errorf("planned moved %d words, unicast %d — grouping should not move more",
			planned.Machine.DataMoved(), unicast.Machine.DataMoved())
	}
	if plan.Stats().Multicasts == 0 {
		t.Error("expected multicasts in the plan")
	}
	if planned.Machine.DistributionTime() >= unicast.Machine.DistributionTime() {
		t.Errorf("planned distribution %v not cheaper than unicast %v",
			planned.Machine.DistributionTime(), unicast.Machine.DistributionTime())
	}
}

func TestPlanRendering(t *testing.T) {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildFor(res, assign.Place(res.Iter.Q, 4))
	s := plan.String()
	if !strings.Contains(s, "distribution plan") {
		t.Errorf("rendering = %q", s)
	}
	if Unicast.String() != "unicast" || Multicast.String() != "multicast" || Broadcast.String() != "broadcast" {
		t.Error("kind names wrong")
	}
}
