package deps

import (
	"slices"
	"strings"
	"testing"

	"commfree/internal/loop"
)

func analyze(t *testing.T, n *loop.Nest) *Analysis {
	t.Helper()
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// kinds returns the multiset of dependence kinds for an array.
func kinds(a *Analysis, array string) map[Kind]int {
	out := map[Kind]int{}
	for _, d := range a.Dependences(array) {
		out[d.Kind]++
	}
	return out
}

func TestL1Dependences(t *testing.T) {
	a := analyze(t, loop.L1())

	// Array A: exactly one flow dependence S1 → S2 with distance (1,1).
	depsA := a.Dependences("A")
	if len(depsA) != 1 {
		t.Fatalf("A dependences = %d, want 1: %v", len(depsA), depsA)
	}
	d := depsA[0]
	if d.Kind != Flow || !d.Src.IsWrite || d.Dst.IsWrite {
		t.Errorf("A dependence = %s", d)
	}
	if d.Src.Stmt != 0 || d.Dst.Stmt != 1 {
		t.Errorf("A dependence statements = S%d→S%d", d.Src.Stmt+1, d.Dst.Stmt+1)
	}
	if d.Distance == nil || d.Distance[0] != 1 || d.Distance[1] != 1 {
		t.Errorf("A distance = %v, want (1,1)", d.Distance)
	}
	if d.R[0] != 2 || d.R[1] != 1 {
		t.Errorf("A data-referenced vector = %v, want (2,1)", d.R)
	}

	// Array C: one input dependence with distance (1,1).
	depsC := a.Dependences("C")
	if len(depsC) != 1 || depsC[0].Kind != Input {
		t.Fatalf("C dependences = %v", depsC)
	}
	if depsC[0].Distance[0] != 1 || depsC[0].Distance[1] != 1 {
		t.Errorf("C distance = %v", depsC[0].Distance)
	}

	// Array B: no dependence (single reference).
	if len(a.Dependences("B")) != 0 {
		t.Errorf("B dependences = %v", a.Dependences("B"))
	}

	// Duplicability (Definition 5).
	if a.FullyDuplicable("A") {
		t.Error("A should be partially duplicable (has flow)")
	}
	if !a.FullyDuplicable("B") || !a.FullyDuplicable("C") {
		t.Error("B and C should be fully duplicable")
	}
}

func TestL1PairRelations(t *testing.T) {
	a := analyze(t, loop.L1())
	relsA := a.PairRelations("A")
	if len(relsA) != 1 {
		t.Fatalf("A pair relations = %d", len(relsA))
	}
	rel := relsA[0]
	if !rel.RationalSolvable || !rel.IntegerRealizable {
		t.Errorf("A pair: solvable=%v realizable=%v", rel.RationalSolvable, rel.IntegerRealizable)
	}
	// Particular solution of H_A t = (2,1) is (1,1).
	if !slices.Equal(rel.Particular, []int64{1, 1}) {
		t.Errorf("particular = %v", rel.Particular)
	}
	// Data-referenced vectors (Definition 1): r̄₁ = (2,1) for A, (1,1) for C.
	rv := a.DataReferencedVectors("A")
	if len(rv) != 1 || rv[0][0] != 2 || rv[0][1] != 1 {
		t.Errorf("A data-referenced vectors = %v", rv)
	}
	rv = a.DataReferencedVectors("C")
	if len(rv) != 1 || rv[0][0] != 1 || rv[0][1] != 1 {
		t.Errorf("C data-referenced vectors = %v", rv)
	}
}

func TestL2Dependences(t *testing.T) {
	a := analyze(t, loop.L2())

	// Paper: no data dependence between A[i+j-1,i+j-1] and A[i+j-1,i+j]
	// (H_A t = r̄₂ unsolvable), no dependence on B (solution (1/2,1) not
	// integer). Both arrays are FULLY duplicable.
	if !a.FullyDuplicable("A") {
		for _, d := range a.Dependences("A") {
			t.Logf("A dep: %s", d)
		}
		t.Error("A should be fully duplicable in L2 (no flow dependence)")
	}
	if !a.FullyDuplicable("B") {
		t.Error("B should be fully duplicable in L2")
	}
	if len(a.Dependences("B")) != 0 {
		t.Errorf("B dependences = %v", a.Dependences("B"))
	}
	// A still has output dependences (S1 and S2 write overlapping
	// elements; kernel reuse also orders writes).
	k := kinds(a, "A")
	if k[Output] == 0 {
		t.Error("A should carry output dependences in L2")
	}
	if k[Flow] != 0 {
		t.Errorf("A flow count = %d, want 0", k[Flow])
	}

	// Pair relation for B records the non-integer solution (1/2, 1).
	relsB := a.PairRelations("B")
	if len(relsB) != 1 {
		t.Fatalf("B pair relations = %d", len(relsB))
	}
	rel := relsB[0]
	if !rel.RationalSolvable {
		t.Error("B pair should be rationally solvable")
	}
	if rel.IntegerRealizable {
		t.Error("B pair should NOT be integer realizable (t = (1/2,1))")
	}
	if !slices.Equal(rel.Particular, []int64{1, 2}) {
		t.Errorf("B particular direction = %v, want (1,2) from (1/2,1)", rel.Particular)
	}
}

func TestL3Dependences(t *testing.T) {
	a := analyze(t, loop.L3())
	k := kinds(a, "A")
	// Paper (Fig. 7): output (w1,w2), flow (w1,r2) and (w2,r2),
	// anti (r1,w1) and (r1,w2), input (r1,r2).
	if k[Output] != 1 {
		t.Errorf("output = %d, want 1", k[Output])
	}
	if k[Flow] != 2 {
		t.Errorf("flow = %d, want 2", k[Flow])
	}
	if k[Anti] != 2 {
		t.Errorf("anti = %d, want 2", k[Anti])
	}
	if k[Input] != 1 {
		t.Errorf("input = %d, want 1", k[Input])
	}
	// Specific distances from the paper's analysis: flow (w2,r2) has
	// vector (1,0), anti (r1,w2) has vector (1,-1).
	var foundFlow10, foundAnti1m1 bool
	for _, d := range a.Dependences("A") {
		// w2 is the S2 write A[i,j-1]; r2 is the S1 read A[i-1,j-1].
		if d.Kind == Flow && d.Distance != nil && d.Distance[0] == 1 && d.Distance[1] == 0 &&
			d.Src.Stmt == 1 && d.Dst.Stmt == 0 {
			foundFlow10 = true
		}
		if d.Kind == Anti && d.Distance != nil && d.Distance[0] == 1 && d.Distance[1] == -1 {
			foundAnti1m1 = true
		}
	}
	if !foundFlow10 {
		t.Error("missing flow dependence (w2,r2) with vector (1,0)")
	}
	if !foundAnti1m1 {
		t.Error("missing anti dependence (r1,w2) with vector (1,-1)")
	}
}

func TestL4Dependences(t *testing.T) {
	a := analyze(t, loop.L4())
	depsA := a.Dependences("A")
	if len(depsA) != 1 {
		t.Fatalf("A dependences = %d: %v", len(depsA), depsA)
	}
	d := depsA[0]
	if d.Kind != Flow {
		t.Errorf("kind = %s", d.Kind)
	}
	if d.Distance[0] != 1 || d.Distance[1] != -1 || d.Distance[2] != 1 {
		t.Errorf("distance = %v, want (1,-1,1)", d.Distance)
	}
	if len(a.Dependences("B")) != 0 {
		t.Errorf("B dependences = %v", a.Dependences("B"))
	}
}

func TestL5Dependences(t *testing.T) {
	a := analyze(t, loop.L5(4))
	// C carries flow (accumulation), anti, and output dependences along k.
	k := kinds(a, "C")
	if k[Flow] == 0 {
		t.Error("C should carry a flow dependence")
	}
	if k[Anti] == 0 {
		t.Error("C should carry an anti dependence (read before write)")
	}
	if k[Output] == 0 {
		t.Error("C should carry an output self-dependence (kernel reuse)")
	}
	// A and B are read-only: fully duplicable, no dependences recorded.
	if !a.FullyDuplicable("A") || !a.FullyDuplicable("B") {
		t.Error("A and B should be fully duplicable")
	}
	if a.FullyDuplicable("C") {
		t.Error("C should be partially duplicable")
	}
	// The anti dependence read C[i,j] → write C[i,j] has a zero-distance
	// instance (same iteration).
	var zeroAnti bool
	for _, d := range a.Dependences("C") {
		if d.Kind == Anti && d.ZeroDistance {
			zeroAnti = true
		}
	}
	if !zeroAnti {
		t.Error("missing zero-distance anti dependence on C")
	}
}

func TestBoundsLimitRealizability(t *testing.T) {
	// A distance of (5,5) cannot be realized in a 4×4 iteration space even
	// though H t = r is solvable; the dependence must be dropped.
	n := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
		},
		Body: []*loop.Statement{
			{
				Write: loop.Ref{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
				Reads: []loop.Ref{
					{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{-5, -5}},
				},
			},
		},
	}
	a := analyze(t, n)
	if len(a.Dependences("A")) != 0 {
		t.Errorf("out-of-range distance produced dependences: %v", a.Dependences("A"))
	}
	rels := a.PairRelations("A")
	if len(rels) != 1 || rels[0].IntegerRealizable {
		t.Errorf("pair should be rationally solvable but not realizable: %+v", rels)
	}
}

func TestTriangularSpaceRealizability(t *testing.T) {
	// In the triangular space 1≤i≤4, i≤j≤4, the distance (3,3) of
	// A[i,j] vs A[i-3,j-3] is realizable only via (1,1)→(4,4), which does
	// exist (both satisfy i≤j).
	n := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
			{Name: "j", Lower: loop.Affine{Coeffs: []int64{1, 0}}, Upper: loop.ConstAffine(2, 4)},
		},
		Body: []*loop.Statement{
			{
				Write: loop.Ref{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
				Reads: []loop.Ref{
					{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{-3, -3}},
				},
			},
		},
	}
	a := analyze(t, n)
	if len(a.Dependences("A")) != 1 {
		t.Fatalf("dependences = %v", a.Dependences("A"))
	}
	// Distance (1,4): A[i,j] vs A[i-1,j-4] would need i' = i+1, j' = j+4;
	// with j ≥ i the target (2,1)... any pair violates the triangle.
	n.Body[0].Reads[0].Offset = []int64{-1, -4}
	a = analyze(t, n)
	if len(a.Dependences("A")) != 0 {
		t.Errorf("infeasible triangular distance produced dependences: %v", a.Dependences("A"))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Flow: "flow", Anti: "anti", Output: "output", Input: "input"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
}

func TestAllDependencesSorted(t *testing.T) {
	a := analyze(t, loop.L1())
	all := a.AllDependences()
	if len(all) != 2 {
		t.Fatalf("total dependences = %d, want 2", len(all))
	}
	if all[0].Array > all[1].Array {
		t.Error("AllDependences not sorted by array")
	}
}

func TestAccessString(t *testing.T) {
	a := analyze(t, loop.L1())
	d := a.Dependences("A")[0]
	if got := d.String(); got == "" {
		t.Error("empty dependence string")
	}
	if !d.Src.IsWrite {
		t.Error("src should be write")
	}
}

func TestSummaryContents(t *testing.T) {
	a := analyze(t, loop.L1())
	s := a.Summary()
	for _, want := range []string{
		"array A: partially duplicable",
		"array B: fully duplicable",
		"array C: fully duplicable",
		"δflow",
		"data-referenced vectors",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	if _, err := Analyze(&loop.Nest{}); err == nil {
		t.Error("invalid nest accepted")
	}
}
