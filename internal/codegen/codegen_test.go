package codegen

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"commfree/internal/assign"
	execpkg "commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
	"commfree/internal/space"
	"commfree/internal/transform"
)

func generateFor(t *testing.T, nest *loop.Nest, strat partition.Strategy, p int) (string, *assign.Assignment) {
	t.Helper()
	res, err := partition.Compute(nest, strat)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transform.Transform(nest, res.Psi)
	if err != nil {
		t.Fatal(err)
	}
	asg := assign.Assign(tr, p)
	src, err := Generate(tr, asg, Options{})
	if err != nil {
		t.Fatalf("generate: %v\n%s", err, src)
	}
	return src, asg
}

func TestGeneratedSourceParses(t *testing.T) {
	cases := []struct {
		name  string
		nest  *loop.Nest
		strat partition.Strategy
		p     int
	}{
		{"L1 non-dup", loop.L1(), partition.NonDuplicate, 4},
		{"L2 dup", loop.L2(), partition.Duplicate, 4},
		{"L2 non-dup sequential", loop.L2(), partition.NonDuplicate, 4},
		{"L3 minimal dup", loop.L3(), partition.MinimalDuplicate, 4},
		{"L4", loop.L4(), partition.NonDuplicate, 4},
		{"L5 dup", loop.L5(4), partition.Duplicate, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, _ := generateFor(t, c.nest, c.strat, c.p)
			if !strings.Contains(src, "func runSequential") || !strings.Contains(src, "func runPE") {
				t.Error("missing generated functions")
			}
		})
	}
}

func TestGeneratedL4Structure(t *testing.T) {
	src, _ := generateFor(t, loop.L4(), partition.NonDuplicate, 4)
	// Two strided forall loops + one plain inner loop; extended
	// statements recover i2 (or equivalent) from the new indices.
	for _, want := range []string{
		"mod(pe[0]", "mod(pe[1]", // cyclic strides on both forall levels
		"runBody(mm, i1, i2, i3)",
		"mm.read(\"B\"",
		"mm.write(\"A\"",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q\n%s", want, src)
		}
	}
}

func TestGeneratedDSLRoundTrip(t *testing.T) {
	// A DSL-parsed loop carries its RHS renderer; the generated body must
	// contain the real expression, not the default placeholder.
	nest := lang.MustParse(`
for i = 1 to 4
  for j = 1 to 4
    A[i,j] = A[i-1,j] * 3 + 1
  end
end
`)
	src, _ := generateFor(t, nest, partition.NonDuplicate, 2)
	if !strings.Contains(src, "* 3") {
		t.Errorf("RHS expression lost:\n%s", src)
	}
}

// runGenerated executes a generated program via `go run` and parses its
// output into (iterations, state map, pe counts).
func runGenerated(t *testing.T, src string) (int64, map[string]string, map[int]int64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", path)
	cmd.Env = append(os.Environ(), "GO111MODULE=auto")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run: %v\n%s\n---source---\n%s", err, out, src)
	}
	var iters int64
	state := map[string]string{}
	pes := map[int]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		switch {
		case strings.HasPrefix(line, "iterations "):
			iters, _ = strconv.ParseInt(strings.TrimPrefix(line, "iterations "), 10, 64)
		case strings.HasPrefix(line, "pe "):
			var id int
			var c int64
			fmt.Sscanf(line, "pe %d %d", &id, &c)
			pes[id] = c
		default:
			eq := strings.LastIndex(line, "=")
			if eq > 0 {
				state[line[:eq]] = line[eq+1:]
			}
		}
	}
	return iters, state, pes
}

// checkGenerated runs the generated program and compares against the
// library's executors.
func checkGenerated(t *testing.T, nest *loop.Nest, strat partition.Strategy, p int) {
	t.Helper()
	src, asg := generateFor(t, nest, strat, p)
	iters, state, pes := runGenerated(t, src)
	if want := nest.NumIterations(); iters != want {
		t.Errorf("generated iterations = %d, want %d", iters, want)
	}
	// State equals the library's sequential execution.
	want := execpkg.Sequential(nest, nil)
	if len(state) != len(want) {
		t.Errorf("generated state size = %d, want %d", len(state), len(want))
	}
	for k, v := range want {
		if got := state[k]; got != fmt.Sprintf("%v", v) {
			t.Errorf("element %s = %q, want %v", k, got, v)
		}
	}
	// Per-processor counts match the assignment's workloads.
	loads := asg.Workloads()
	var sum int64
	for id, c := range pes {
		sum += c
		if id < len(loads) && c != loads[id] {
			t.Errorf("PE%d count = %d, assignment says %d", id, c, loads[id])
		}
	}
	if sum != nest.NumIterations() {
		t.Errorf("PE counts sum to %d, want %d", sum, nest.NumIterations())
	}
}

func TestGeneratedExecutionL1(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	checkGenerated(t, loop.L1(), partition.NonDuplicate, 4)
}

func TestGeneratedExecutionL4(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	checkGenerated(t, loop.L4(), partition.NonDuplicate, 4)
}

func TestGeneratedExecutionL2Parallel(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	checkGenerated(t, loop.L2(), partition.Duplicate, 4)
}

func TestGeneratedExecutionSequentialForm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	// K = 0: the whole loop is one block on processor 0.
	checkGenerated(t, loop.L2(), partition.NonDuplicate, 4)
}

func TestGeneratedNonUnimodularGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	// Ψ = span{(2,1)} forces a non-unimodular transform; the generated
	// code must guard index recovery with divisibility checks and still
	// enumerate the space exactly once.
	nest := &loop.Nest{
		Levels: []loop.Level{
			{Name: "i", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 6)},
			{Name: "j", Lower: loop.ConstAffine(2, 1), Upper: loop.ConstAffine(2, 6)},
		},
		Body: []*loop.Statement{{
			Write: loop.Ref{Array: "A", H: [][]int64{{1, 0}, {0, 1}}, Offset: []int64{0, 0}},
		}},
	}
	psi := space.Span(2, []int64{2, 1})
	tr, err := transform.Transform(nest, psi)
	if err != nil {
		t.Fatal(err)
	}
	asg := assign.Assign(tr, 2)
	src, err := Generate(tr, asg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "Num, ") || !strings.Contains(src, "continue") {
		t.Errorf("missing divisibility guard:\n%s", src)
	}
	iters, state, pes := runGenerated(t, src)
	if iters != 36 {
		t.Errorf("iterations = %d, want 36", iters)
	}
	if len(state) != 36 {
		t.Errorf("state = %d elements, want 36", len(state))
	}
	var sum int64
	for _, c := range pes {
		sum += c
	}
	if sum != 36 {
		t.Errorf("pe sum = %d, want 36", sum)
	}
}

func TestPropGeneratedSourceParsesForRandomNests(t *testing.T) {
	// Parse-only fuzzing of the back end: every random nest's generated
	// program must be syntactically valid Go (Generate itself runs
	// go/parser and errors otherwise).
	rnd := rand.New(rand.NewSource(200))
	cfg := loopgen.DefaultConfig()
	for i := 0; i < 25; i++ {
		nest := loopgen.Generate(rnd, cfg)
		strat := []partition.Strategy{partition.NonDuplicate, partition.Duplicate}[i%2]
		res, err := partition.Compute(nest, strat)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transform.Transform(nest, res.Psi)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, nest)
		}
		asg := assign.Assign(tr, 1+rnd.Intn(6))
		if _, err := Generate(tr, asg, Options{}); err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, nest)
		}
	}
}

func TestOptionsPackageName(t *testing.T) {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transform.Transform(loop.L1(), res.Psi)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(tr, assign.Assign(tr, 2), Options{PackageName: "kernel"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimLeft(src[strings.Index(src, "package"):], " "), "package kernel") {
		t.Error("package name not honored")
	}
}

// TestEveryGeneratedSourceParsesWhole: Generate checks only the part it
// emitted after the constant prelude; every source it returns must still
// parse as one whole file, over the corpus under every strategy.
func TestEveryGeneratedSourceParsesWhole(t *testing.T) {
	strategies := []partition.Strategy{
		partition.NonDuplicate, partition.Duplicate,
		partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Mars,
	}
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4)}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil {
			nests = append(nests, nest)
		}
	}
	n := 0
	for i, nest := range nests {
		for _, strat := range strategies {
			res, err := partition.Compute(nest, strat)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			tr, err := transform.Transform(nest, res.Psi)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			asg := assign.Assign(tr, 4)
			opts := Options{}
			if strat == partition.Mars {
				opts.PEIterations = PETable(res, tr, asg)
			}
			out, err := Generate(tr, asg, opts)
			if err != nil {
				t.Fatalf("nest %d %s: %v", i, strat, err)
			}
			if _, err := parser.ParseFile(token.NewFileSet(), "whole.go", out, 0); err != nil {
				t.Fatalf("nest %d %s: returned source does not parse whole: %v", i, strat, err)
			}
			n++
		}
	}
	if n < 5*15 {
		t.Fatalf("only %d programs generated", n)
	}
}

// TestUnparseableProgramIsRefused: a hand-built nest whose index is a Go
// keyword yields a program that does not parse, and the error's position
// is the offending line of the returned source.
func TestUnparseableProgramIsRefused(t *testing.T) {
	nest := loop.L1()
	nest.Levels[0].Name = "func"
	res, err := partition.Compute(nest, partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transform.Transform(nest, res.Psi)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(tr, assign.Assign(tr, 4), Options{})
	if err == nil || !strings.Contains(err.Error(), "does not parse") {
		t.Fatalf("err = %v, want \"does not parse\"", err)
	}
	_, whole := parser.ParseFile(token.NewFileSet(), "generated.go", src, 0)
	if whole == nil || !strings.Contains(err.Error(), whole.Error()) {
		t.Errorf("err = %v, want the whole file's parse error %v", err, whole)
	}
}
