package report

import (
	"strings"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/space"
	"commfree/internal/transform"
)

// fig renders figure n or fails the test.
func fig(t *testing.T, n int) string {
	t.Helper()
	s, err := Figure(n)
	if err != nil {
		t.Fatalf("fig %d: %v", n, err)
	}
	return s
}

// TestFiguresGolden pins the figures section to Figures 1–10 as they
// rendered before they became views of the partition, one blank line
// between two, plus Fig. 10's blocked workloads.
func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	if err := figuresSection(&b, machine.Transputer()); err != nil {
		t.Fatal(err)
	}
	s, pre := strings.CutPrefix(b.String(), "## Figures\n\n```\n")
	s, suf := strings.CutSuffix(s, "```\n\n")
	if !pre || !suf {
		t.Fatalf("figures section is not one fenced block:\n%s", b.String())
	}
	golden(t, "figures.golden", s)
}

func TestRenderDispatch(t *testing.T) {
	for n := 1; n <= 10; n++ {
		s, err := Figure(n)
		if err != nil {
			t.Errorf("fig %d: %v", n, err)
		}
		if len(s) == 0 {
			t.Errorf("fig %d empty", n)
		}
	}
	for _, n := range []int{0, 11} {
		if _, err := Figure(n); err == nil {
			t.Errorf("fig %d should not exist", n)
		}
	}
}

func TestFig6Fig7Graphs(t *testing.T) {
	s6 := fig(t, 6)
	for _, want := range []string{"Definition 6", "δo", "δf", "δa", "δi"} {
		if !strings.Contains(s6, want) {
			t.Errorf("Fig6 missing %q", want)
		}
	}
	s7 := fig(t, 7)
	for _, want := range []string{"G^A:", "w1", "w2", "r1", "r2", "--δf-->", "--δa-->"} {
		if !strings.Contains(s7, want) {
			t.Errorf("Fig7 missing %q:\n%s", want, s7)
		}
	}
}

func TestFig1Content(t *testing.T) {
	s := fig(t, 1)
	// L1's data-referenced vectors: (2,1) for A, (1,1) for C, none for B.
	if !strings.Contains(s, "(2,1)") {
		t.Error("missing A's vector (2,1)")
	}
	if !strings.Contains(s, "(1,1)") {
		t.Error("missing C's vector (1,1)")
	}
	if !strings.Contains(s, "none (single reference)") {
		t.Error("missing B's no-vector note")
	}
	// Array A's data space spans rows 0..8 (paper writes A[0:8, 0:4]).
	if !strings.Contains(s, "array A  [0:8, 0:4]") {
		t.Errorf("A bounding box wrong:\n%s", s)
	}
	// Odd rows of A are unused (H maps to even first coordinates).
	if !strings.Contains(s, "·") {
		t.Error("unused elements not marked")
	}
}

func TestFig2SevenBlocks(t *testing.T) {
	s := fig(t, 2)
	if !strings.Contains(s, "7 blocks per array") {
		t.Error("missing block count")
	}
	// Highest block ID is 7.
	if !strings.Contains(s, "7") {
		t.Error("no block 7")
	}
	if strings.Contains(s, "  +") {
		t.Error("non-duplicate figure shows duplicated elements")
	}
}

func TestFig3BlockLayout(t *testing.T) {
	s := fig(t, 3)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Last four lines are the 4×4 grid; the diagonal of the grid shares
	// one block. Corner (1,1) is in a different block from (1,4).
	grid := lines[len(lines)-4:]
	if len(grid) != 4 {
		t.Fatalf("grid lines = %d", len(grid))
	}
	// Base-point markers exist (7 of them, excluding the legend's).
	gridOnly := strings.Join(grid, "\n")
	if strings.Count(gridOnly, "*") != 7 {
		t.Errorf("base points marked = %d, want 7", strings.Count(gridOnly, "*"))
	}
}

func TestFig4Duplication(t *testing.T) {
	s := fig(t, 4)
	// A must show replicated elements (+n cells); B must not.
	if !strings.Contains(s, "+") {
		t.Error("A's duplicated elements not shown")
	}
	if !strings.Contains(s, "copy factor") {
		t.Error("copy factor missing")
	}
}

func TestFig5SixteenSingletons(t *testing.T) {
	s := fig(t, 5)
	if !strings.Contains(s, "fully parallel") {
		t.Error("missing title")
	}
	// Block IDs 1..16 all present.
	for id := 1; id <= 16; id++ {
		if !strings.Contains(s, " "+pad(id)) {
			t.Errorf("block %d missing", id)
		}
	}
}

func pad(n int) string {
	if n < 10 {
		return " " + string(rune('0'+n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestFig8FourColumnBlocks(t *testing.T) {
	s := fig(t, 8)
	if !strings.Contains(s, "span{(1,0)}") {
		t.Error("missing space")
	}
}

func TestFig9RedundantMarks(t *testing.T) {
	s := fig(t, 9)
	// 12 redundant S1 computations marked 'o', 4 solid '*'.
	if got := strings.Count(s, "o"); got < 12 {
		t.Errorf("dotted points = %d, want ≥ 12", got)
	}
	// Count '*' in the grid area only (skip the legend line).
	legendEnd := strings.Index(s, "redundant)") + len("redundant)")
	gridPart := s[legendEnd:]
	if got := strings.Count(gridPart, "*"); got != 4 {
		t.Errorf("solid points = %d, want 4", got)
	}
}

func TestFig10BalancedWorkloads(t *testing.T) {
	s := fig(t, 10)
	for pe := 0; pe < 4; pe++ {
		want := "PE" + string(rune('0'+pe)) + ": 16 iterations"
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
	// The central block (i1'=5, i2'=0) has 4 iterations.
	if !strings.Contains(s, " 4@P") {
		t.Error("missing a 4-iteration block")
	}
}

// TestCyclicBeatsBlockedOnL4 is the paper's load-balancing claim made
// measurable on Fig. 10's numbers: the diagonal partition of L4 has its
// big blocks in the middle of the forall space, so contiguous ranges are
// uneven while the cyclic distribution is perfectly balanced.
func TestCyclicBeatsBlockedOnL4(t *testing.T) {
	a, err := l4Prime()
	if err != nil {
		t.Fatal(err)
	}
	spread := func(loads []int64) int64 {
		lo, hi := loads[0], loads[0]
		for _, l := range loads {
			lo, hi = min(lo, l), max(hi, l)
		}
		return hi - lo
	}
	cyc, blk := spread(a.Workloads()), spread(blockedWorkloads(a))
	if cyc != 0 || blk <= cyc {
		t.Errorf("imbalance: cyclic %d, blocked %d; want 0 < blocked", cyc, blk)
	}
}

// TestBlockedWorkloadsConserveWork: both mappings of L4' hand out all 64
// iterations, only in different shares.
func TestBlockedWorkloadsConserveWork(t *testing.T) {
	a, err := l4Prime()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(loads []int64) (s int64) {
		for _, l := range loads {
			s += l
		}
		return s
	}
	if cyc, blk := sum(a.Workloads()), sum(blockedWorkloads(a)); cyc != 64 || blk != 64 {
		t.Errorf("workloads sum to %d (cyclic) and %d (blocked), want 64", cyc, blk)
	}
}

// TestBlockedWorkloadsOnSequentialLoop: a loop with no forall level runs
// on one processor under either mapping.
func TestBlockedWorkloadsOnSequentialLoop(t *testing.T) {
	tr, err := transform.Transform(loop.L1(), space.Full(2))
	if err != nil {
		t.Fatal(err)
	}
	a := assign.Assign(tr, 2)
	if got := blockedWorkloads(a); len(got) != 1 || got[0] != 16 {
		t.Errorf("blocked workloads = %v, want [16]", got)
	}
}
