package redundant

import (
	"fmt"
	"strings"
	"testing"

	"commfree/internal/deps"
	"commfree/internal/loop"
)

func eliminate(t *testing.T, n *loop.Nest) *Result {
	t.Helper()
	a, err := deps.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Eliminate(a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestL3NonRedundantSets(t *testing.T) {
	r := eliminate(t, loop.L3())
	// Paper: N(S1) = {(i,4) | 1≤i≤4}, N(S2) = all 16 iterations.
	n1 := r.NonRedundant(0)
	if len(n1) != 4 {
		t.Fatalf("N(S1) size = %d, want 4: %v", len(n1), n1)
	}
	for _, it := range n1 {
		if it[1] != 4 {
			t.Errorf("N(S1) contains %v, want j = 4 only", it)
		}
	}
	n2 := r.NonRedundant(1)
	if len(n2) != 16 {
		t.Errorf("N(S2) size = %d, want 16", len(n2))
	}
	if r.NumRedundant() != 12 {
		t.Errorf("redundant count = %d, want 12", r.NumRedundant())
	}
}

func TestL3FalseAndUsefulDeps(t *testing.T) {
	r := eliminate(t, loop.L3())
	// Paper: useful deps are exactly flow (w2,r2) with vector (1,0) and
	// anti (r1,w2) with vector (1,-1); the output (w1,w2), flow (w1,r2),
	// anti (r1,w1), and input (r1,r2) dependences are all false.
	if len(r.UsefulDeps) != 2 {
		for _, d := range r.UsefulDeps {
			t.Logf("useful: %s dist=%v", d, d.Distance)
		}
		t.Fatalf("useful deps = %d, want 2", len(r.UsefulDeps))
	}
	var flowOK, antiOK bool
	for _, d := range r.UsefulDeps {
		if d.Kind == deps.Flow && d.Distance[0] == 1 && d.Distance[1] == 0 {
			flowOK = true
		}
		if d.Kind == deps.Anti && d.Distance[0] == 1 && d.Distance[1] == -1 {
			antiOK = true
		}
	}
	if !flowOK || !antiOK {
		t.Errorf("useful deps wrong: flow(1,0)=%v anti(1,-1)=%v", flowOK, antiOK)
	}
	if len(r.FalseDeps) != 4 {
		for _, d := range r.FalseDeps {
			t.Logf("false: %s", d)
		}
		t.Errorf("false deps = %d, want 4", len(r.FalseDeps))
	}
}

func TestL1NoRedundancy(t *testing.T) {
	// L1 has no redundant computations: every write survives (A written
	// once per element per live chain, B final, C read-only).
	r := eliminate(t, loop.L1())
	if r.NumRedundant() != 0 {
		t.Errorf("L1 redundant = %d, want 0", r.NumRedundant())
	}
	// Every dependence stays useful.
	if len(r.FalseDeps) != 0 {
		t.Errorf("L1 false deps = %v", r.FalseDeps)
	}
}

func TestL5NoRedundancy(t *testing.T) {
	// Matrix multiplication: every C write is read by the next k
	// iteration (accumulation), so nothing is redundant.
	r := eliminate(t, loop.L5(3))
	if r.NumRedundant() != 0 {
		t.Errorf("L5 redundant = %d, want 0", r.NumRedundant())
	}
}

func TestCase1DirectOverwrite(t *testing.T) {
	// B[i,j] := ... then B[i,j-1] := ... : like the S2'/S4' pair in the
	// paper's illustration — B written at (i,j) by S1 is overwritten at
	// (i,j+1) by S2 without any read. All S1 writes except the j=4 column
	// are redundant.
	n := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
		},
		Body: []*loop.Statement{
			{
				Label: "S1",
				Write: loop.Ref{Array: "B", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
			},
			{
				Label: "S2",
				Write: loop.Ref{Array: "B", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, -1}},
			},
		},
	}
	r := eliminate(t, n)
	n1 := r.NonRedundant(0)
	if len(n1) != 4 {
		t.Fatalf("N(S1) = %d, want 4 (only j=4 column)", len(n1))
	}
	for _, it := range n1 {
		if it[1] != 4 {
			t.Errorf("non-redundant S1 at %v", it)
		}
	}
	if len(r.NonRedundant(1)) != 16 {
		t.Errorf("N(S2) = %d, want 16", len(r.NonRedundant(1)))
	}
}

func TestCase2ReadByRedundantOnly(t *testing.T) {
	// Mirror of the paper's four-statement illustration:
	//   S1: A[i,j]     := ...        (read only by S2 at the next iteration)
	//   S2: B[i,j]     := A[i,j-1]   (overwritten unread by S4 → redundant)
	//   S3: A[i-1,j-1] := ...        (overwrites S1's value)
	//   S4: B[i,j-1]   := ...
	// S2(ī) is redundant (Case 1 via S4); then S1's writes are read only
	// by redundant S2 computations before S3 overwrites them (Case 2).
	id := [][]int64{{1, 0}, {0, 1}}
	n := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 4)},
		},
		Body: []*loop.Statement{
			{Label: "S1", Write: loop.Ref{Array: "A", H: id, Offset: []int64{0, 0}},
				Reads: []loop.Ref{{Array: "C", H: id, Offset: []int64{0, 0}}}},
			{Label: "S2", Write: loop.Ref{Array: "B", H: id, Offset: []int64{0, 0}},
				Reads: []loop.Ref{{Array: "A", H: id, Offset: []int64{0, -1}}}},
			{Label: "S3", Write: loop.Ref{Array: "A", H: id, Offset: []int64{-1, -1}},
				Reads: []loop.Ref{{Array: "E", H: id, Offset: []int64{0, -1}}}},
			{Label: "S4", Write: loop.Ref{Array: "B", H: id, Offset: []int64{0, -1}}},
		},
	}
	r := eliminate(t, n)
	// The paper's concrete instances: S2'(2,2) redundant, S1'(2,1)
	// redundant.
	if !r.IsRedundant(1, []int64{2, 2}) {
		t.Error("S2(2,2) should be redundant (Case 1)")
	}
	if !r.IsRedundant(0, []int64{2, 1}) {
		t.Error("S1(2,1) should be redundant (Case 2)")
	}
}

func TestValSets(t *testing.T) {
	r := eliminate(t, loop.L3())
	a, _ := deps.Analyze(loop.L3())
	_ = a
	// Val(w1, S1) after elimination = {A[i,4] : i = 1..4}.
	var w1 deps.Access
	for _, d := range r.Analysis.AllDependences() {
		if d.Src.IsWrite && d.Src.Stmt == 0 {
			w1 = d.Src
			break
		}
	}
	if w1.Ref.Array == "" {
		// Build directly: S1's write access.
		w1 = deps.Access{Stmt: 0, IsWrite: true, Ref: loop.L3().Body[0].Write}
	}
	val := r.Val(w1)
	if len(val) != 4 {
		t.Fatalf("Val(w1,S1) size = %d, want 4: %v", len(val), val)
	}
	for i := int64(1); i <= 4; i++ {
		if e := val[i-1]; e[0] != i || e[1] != 4 {
			t.Errorf("Val(w1,S1)[%d] = %v, want A[%d,4]", i-1, e, i)
		}
	}
}

func TestSemanticEquivalenceAfterElimination(t *testing.T) {
	// Removing redundant computations must not change the final array
	// state. Execute L3 with and without the redundant computations.
	nests := map[string]*loop.Nest{"L3": loop.L3(), "L1": loop.L1()}
	for name, n := range nests {
		r := eliminate(t, n)
		full := execute(n, nil)
		pruned := execute(n, r)
		if len(full) != len(pruned) {
			t.Fatalf("%s: state sizes differ: %d vs %d", name, len(full), len(pruned))
		}
		for k, v := range full {
			if pruned[k] != v {
				t.Errorf("%s: element %s = %v pruned vs %v full", name, k, pruned[k], v)
			}
		}
	}
}

// execute runs the nest sequentially; when r is non-nil, redundant
// computations are skipped. Arrays are initialized on demand with a
// deterministic function of the element index.
func execute(n *loop.Nest, r *Result) map[string]float64 {
	state := map[string]float64{}
	read := func(array string, idx []int64) float64 {
		k := array + fmt.Sprint(idx)
		if v, ok := state[k]; ok {
			return v
		}
		// Deterministic initial value.
		var h float64 = 1
		for _, x := range idx {
			h = h*31 + float64(x)
		}
		return h
	}
	for _, it := range n.Iterations() {
		for si, st := range n.Body {
			if r != nil && r.IsRedundant(si, it) {
				continue
			}
			vals := make([]float64, len(st.Reads))
			for ri, rd := range st.Reads {
				vals[ri] = read(rd.Array, rd.Index(it))
			}
			state[st.Write.Array+fmt.Sprint(st.Write.Index(it))] = st.EvalExpr(it, vals)
		}
	}
	return state
}

func TestSummary(t *testing.T) {
	r := eliminate(t, loop.L3())
	s := r.Summary()
	for _, want := range []string{"N(S1): 4", "N(S2): 16", "useful dependences (2)", "false dependences (4)"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
