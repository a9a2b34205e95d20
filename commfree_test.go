package commfree

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
)

const srcL1 = `
for i = 1 to 4
  for j = 1 to 4
    S1: A[2i, j]  = C[i, j] * 7
    S2: B[j, i+1] = A[2i-2, j-1] + C[i-1, j-1]
  end
end
`

func TestCompileL1EndToEnd(t *testing.T) {
	comp, err := Compile(srcL1, NonDuplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Partition.Iter.NumBlocks() != 7 {
		t.Errorf("blocks = %d, want 7", comp.Partition.Iter.NumBlocks())
	}
	if err := comp.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	rep, err := comp.Execute(TransputerCost())
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialReference(comp.Nest)
	for k, v := range want {
		if rep.Final[k] != v {
			t.Errorf("element %s = %v, want %v", k, rep.Final[k], v)
		}
	}
}

func TestCompileReportSections(t *testing.T) {
	comp, err := Compile(srcL1, NonDuplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	rpt := comp.Report()
	for _, want := range []string{"== source ==", "== partition ==", "== transformed loop ==", "== processor assignment", "forall"} {
		if !strings.Contains(rpt, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestReportSourceReparses: the report's source section is the nest as
// DSL text — every subscript and body spelled out — so it parses back to
// the nest that was compiled, canonical text for canonical text.
func TestReportSourceReparses(t *testing.T) {
	for _, src := range []string{srcL1, lang.Format(LoopL3()), lang.Format(loop.L5(3))} {
		comp, err := Compile(src, Duplicate, 4)
		if err != nil {
			t.Fatal(err)
		}
		section, _, _ := strings.Cut(strings.TrimPrefix(comp.Report(), "== source ==\n"), "\n== ")
		nest, err := lang.Parse(section)
		if err != nil {
			t.Fatalf("the report's source section does not parse: %v\n%s", err, section)
		}
		if got, want := lang.Canonical(nest), lang.Canonical(comp.Nest); got != want {
			t.Errorf("the report's source section canonicalizes to\n%s\nthe compiled nest to\n%s", got, want)
		}
	}
}

func TestCompileMinimalStrategyIncludesRedundancy(t *testing.T) {
	comp, err := CompileNest(LoopL3(), MinimalDuplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Partition.Redundant == nil {
		t.Fatal("minimal strategy without redundancy result")
	}
	if !strings.Contains(comp.Report(), "redundant computations") {
		t.Error("report missing redundancy section")
	}
	if _, err := comp.Execute(TransputerCost()); err != nil {
		t.Errorf("execute: %v", err)
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	if _, err := Compile("not a loop", NonDuplicate, 4); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Compile(srcL1, NonDuplicate, 0); err == nil {
		t.Error("zero processors accepted")
	}
}

func TestPaperLoopsExposed(t *testing.T) {
	for name, n := range map[string]*Nest{
		"L1": LoopL1(), "L2": LoopL2(), "L3": LoopL3(), "L4": LoopL4(), "L5": LoopL5(4),
	} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAnalyzeAndHyperplaneFacade(t *testing.T) {
	a, err := Analyze(LoopL1())
	if err != nil {
		t.Fatal(err)
	}
	if a.FullyDuplicable("A") {
		t.Error("A should carry flow dependence")
	}
	h, err := Hyperplane(LoopL1())
	if err != nil {
		t.Fatal(err)
	}
	if h.Applicable {
		t.Error("hyperplane method should not apply to L1")
	}
}

func TestPartitionSelectiveFacade(t *testing.T) {
	res, err := PartitionSelective(LoopL5(4), map[string]bool{"B": true, "C": true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iter.NumBlocks() != 4 {
		t.Errorf("blocks = %d, want 4", res.Iter.NumBlocks())
	}
}

func TestEliminateRedundantFacade(t *testing.T) {
	r, err := EliminateRedundant(LoopL3())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRedundant() != 12 {
		t.Errorf("redundant = %d, want 12", r.NumRedundant())
	}
}

func TestTableIFacade(t *testing.T) {
	rows, err := TableI([]int64{16, 32}, []int{4}, TransputerCost())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupDoublePrime() < r.SpeedupPrime() {
			t.Errorf("M=%d: L5″ speedup below L5′", r.M)
		}
	}
}

func TestRunL5Facades(t *testing.T) {
	want := SequentialMatMul(8)
	for name, run := range map[string]func(int64, int, CostModel) (*ExecutionReport, *DistributionPlan, error){
		"L5′": RunL5Prime, "L5″": RunL5DoublePrime,
	} {
		rep, plan, err := run(8, 4, TransputerCost())
		if err != nil {
			t.Fatal(err)
		}
		if n := Mismatches(rep.Final, want); n != 0 {
			t.Errorf("%s: %d elements differ from sequential execution", name, n)
		}
		if len(plan.Loads) != 4 {
			t.Errorf("%s: plan addresses %d processors, want 4", name, len(plan.Loads))
		}
	}
}

func TestCompileProgramMultipleNests(t *testing.T) {
	src := srcL1 + `
for i = 1 to 4
  for j = 1 to 4
    D[i,j] = D[i-1,j] + 1
  end
end
`
	comps, err := CompileProgram(src, NonDuplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("nests = %d", len(comps))
	}
	// First nest: L1's 7 diagonal blocks; second: 4 column blocks.
	if comps[0].Partition.Iter.NumBlocks() != 7 {
		t.Errorf("nest 1 blocks = %d", comps[0].Partition.Iter.NumBlocks())
	}
	if comps[1].Partition.Iter.NumBlocks() != 4 {
		t.Errorf("nest 2 blocks = %d", comps[1].Partition.Iter.NumBlocks())
	}
	for i, c := range comps {
		if err := c.Verify(); err != nil {
			t.Errorf("nest %d: %v", i+1, err)
		}
	}
}

func TestExecutePlannedFacade(t *testing.T) {
	comp, err := CompileNest(LoopL5(4), Duplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, plan, err := comp.ExecutePlanned(TransputerCost())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats().Multicasts == 0 {
		t.Error("plan found no multicast groups for L5")
	}
	want := SequentialReference(comp.Nest)
	for k, v := range want {
		if rep.Final[k] != v {
			t.Fatalf("element %s differs", k)
		}
	}
}

func TestSelectStrategyAndCompileCandidate(t *testing.T) {
	nest := LoopL5(8)
	best, all, err := SelectStrategy(nest, 4, TransputerCost())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 11 {
		t.Fatalf("candidates = %d", len(all))
	}
	if !strings.Contains(StrategyRanking(all), "strategy ranking") {
		t.Error("ranking text missing")
	}
	comp, err := CompileCandidate(nest, best, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Verify(); err != nil {
		t.Fatal(err)
	}
	rep, err := comp.Execute(TransputerCost())
	if err != nil {
		t.Fatal(err)
	}
	want := SequentialReference(nest)
	for k, v := range want {
		if rep.Final[k] != v {
			t.Fatalf("element %s differs", k)
		}
	}
	// Every candidate must be compilable, not just the winner.
	for _, c := range all {
		if _, err := CompileCandidate(nest, c, 4); err != nil {
			t.Errorf("candidate %s: %v", c.Label, err)
		}
	}
}

func TestLayoutsFacade(t *testing.T) {
	comp, err := CompileNest(LoopL1(), NonDuplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	ls := comp.Layouts()
	if len(ls) != 3 {
		t.Fatalf("layouts = %d", len(ls))
	}
	if !strings.Contains(comp.Report(), "local memory layout") {
		t.Error("report missing layout section")
	}
	if !strings.Contains(comp.Report(), "dependence analysis") {
		t.Error("report missing analysis section")
	}
}

func TestFormatLoopFacade(t *testing.T) {
	src := FormatLoop(LoopL1())
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("formatted L1 does not reparse: %v\n%s", err, src)
	}
	if n.Depth() != 2 || len(n.Body) != 2 {
		t.Errorf("round trip shape wrong")
	}
}

func TestTransformLoopFacade(t *testing.T) {
	res, err := Partition(LoopL4(), NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TransformLoop(res)
	if err != nil {
		t.Fatal(err)
	}
	if tr.K != 2 || tr.G != 1 {
		t.Errorf("K=%d G=%d", tr.K, tr.G)
	}
}

// srcNaN computes 0/0 into every element: NaN on every engine, so the
// parallel run must still validate against the sequential one.
const srcNaN = "for i = 0 to 7\n  A[i] = 0/0\nend\n"

func TestMismatchesCountsNaNAsNaN(t *testing.T) {
	comp, err := Compile(srcNaN, NonDuplicate, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := comp.Execute(TransputerCost())
	if err != nil {
		t.Fatal(err)
	}
	if n := Mismatches(rep.Final, SequentialReference(comp.Nest)); n != 0 {
		t.Errorf("Mismatches = %d on a nest that computes NaN, want 0", n)
	}
}

// TestCLIExecutesNaN: `commfree -exec` on a nest that computes NaN says
// the result is identical to sequential execution and exits 0.
func TestCLIExecutesNaN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "nan.cf")
	if err := os.WriteFile(src, []byte(srcNaN), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "commfree")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/commfree").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-file", src, "-p", "4", "-exec").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "result: identical to sequential execution (8 elements)") {
		t.Errorf("commfree -exec: %v\n%s", err, out)
	}
}
