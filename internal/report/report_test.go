package report

import (
	"os"
	"strings"
	"testing"

	"commfree/internal/distplan"
	"commfree/internal/exec"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

func TestGenerateFullReport(t *testing.T) {
	s, err := Generate(Sections()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# commfree — live reproduction report",
		"## Table I",
		"## Table II",
		"Shape check (L5″ ≤ L5′ at every point): **true**",
		"## Figures",
		"Fig. 10 — processor assignment",
		"## Kernel gallery",
		"| matmul | 1 | 16 | 1 | 16 |",
		"| gauss-seidel | 1 | 1 | 1 | 1 |",
		"## Strategy selection",
		"strategy ranking",
		"## Strategy comparison",
		"hyperplane baseline",
		"## Cache thrashing",
		"## Validation",
		// Tables I–II's plan shapes: L5′ unicasts A's rows and broadcasts
		// B once; L5″ multicasts A's row groups and B's column groups.
		"| 16 | 4 | correct=true (4 unicasts, 0 multicasts, 1 broadcasts) | correct=true (4 unicasts, 4 multicasts, 0 broadcasts) |",
		"| 64 | 16 | correct=true (16 unicasts, 0 multicasts, 1 broadcasts) | correct=true (16 unicasts, 8 multicasts, 0 broadcasts) |",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(s, "⚠") || strings.Contains(s, "correct=false") {
		t.Error("report flags an unverified partition or a failed validation")
	}
}

func TestGenerateSectionsIndependently(t *testing.T) {
	s, err := Generate("tables")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "## Table I") || strings.Contains(s, "## Kernel gallery") {
		t.Error("section selection broken")
	}
	s, err = Generate("gallery")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "## Table I") || !strings.Contains(s, "## Kernel gallery") {
		t.Error("section selection broken")
	}
	if _, err := Generate("tables", "nope"); err == nil || !strings.Contains(err.Error(), `unknown section "nope"`) {
		t.Errorf("unknown section: err = %v", err)
	}
}

func TestPaperReferenceValuesPresent(t *testing.T) {
	s, err := Generate("tables")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's M=256, p=16 speedups appear as references.
	for _, want := range []string{"13.05", "15.14"} {
		if !strings.Contains(s, want) {
			t.Errorf("paper reference %s missing", want)
		}
	}
}

// golden compares got with a file under testdata.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s:\n%s", name, got)
	}
}

// TestTablesAndGalleryGolden pins the tables and gallery markdown to
// what it was when each had a command of its own beside the report.
func TestTablesAndGalleryGolden(t *testing.T) {
	s, err := Generate("tables", "gallery")
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "tables_gallery.golden", s)
}

// TestValidateFailsOnMismatch: a plan whose final state is off by one
// element fails the section, and so the report command exits non-zero.
func TestValidateFailsOnMismatch(t *testing.T) {
	corrupt := func(res *partition.Result, p int, cost machine.CostModel) (*exec.Report, *distplan.Plan, error) {
		rep, plan, err := distplan.ParallelPlanned(res, p, cost)
		if err == nil {
			for k := range rep.Final {
				rep.Final[k]++
				break
			}
		}
		return rep, plan, err
	}
	var b strings.Builder
	err := validate(&b, machine.Transputer(), corrupt)
	if err == nil || !strings.Contains(err.Error(), "validation failed at M=16 p=4") {
		t.Fatalf("err = %v, want a failure at the first cell", err)
	}
	if !strings.Contains(b.String(), "correct=false") {
		t.Errorf("failed cell not rendered:\n%s", b.String())
	}
}
