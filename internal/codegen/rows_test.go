package codegen

import (
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/loopgen"
	"commfree/internal/partition"
	"commfree/internal/transform"
)

// strategies is every strategy, Selective over the first array.
var strategies = []partition.Strategy{partition.NonDuplicate, partition.Duplicate,
	partition.MinimalNonDuplicate, partition.MinimalDuplicate, partition.Selective, partition.Mars}

// generateAll runs every strategy on the nest and returns the programs
// Generate emits on p processors.
func generateAll(t testing.TB, nest *loop.Nest, p int) []string {
	t.Helper()
	pc, err := partition.NewContext(nest, nil, 0)
	if err != nil {
		t.Fatalf("%v\n%s", err, nest)
	}
	var out []string
	for _, strat := range strategies {
		res, err := pc.Compute(strat, map[string]bool{pc.Index.Arrays[0]: true}, 0)
		if err != nil {
			t.Fatalf("%s: %v\n%s", strat, err, nest)
		}
		tr, err := transform.Transform(nest, res.Psi)
		if err != nil {
			t.Fatalf("%s: %v\n%s", strat, err, nest)
		}
		asg := assign.Assign(tr, p)
		opts := Options{}
		if strat == partition.Mars {
			opts.PEIterations = PETable(res, tr, asg)
		}
		src, err := Generate(tr, asg, opts)
		if err != nil {
			t.Fatalf("%s: %v\n%s", strat, err, nest)
		}
		out = append(out, src)
	}
	return out
}

// split cuts a generated source back into what Generate checked: the
// head, the rest after the prelude, and where the PE table's rows lie in
// the rest (empty when there is no table).
func split(t testing.TB, src string) (head, rest string, rows [2]int) {
	t.Helper()
	i := strings.Index(src, prelude)
	if i < 0 {
		t.Fatal("no prelude in the generated source")
	}
	head, rest = src[:i], src[i+len(prelude):]
	const open = "var peIters = [][][]int64{\n"
	if j := strings.Index(rest, open); j >= 0 {
		rows[0] = j + len(open)
		rows[1] = rows[0] + strings.Index(rest[rows[0]:], "\n}\n\n") + 1
		if rest[rows[0]:rows[1]] == "\n" {
			rows[1] = rows[0] // "{\n}": no rows
		}
	}
	return head, rest, rows
}

func parsesWhole(src string) error {
	_, err := parser.ParseFile(token.NewFileSet(), "whole.go", src, 0)
	return err
}

// TestRowGrammarAgreesWithTheParser: over every strategy's programs for
// L1–L5, the corpus and a nest whose tables hold zero and negative
// indices, the rows emitPETable writes match the row grammar — the check
// never falls back to parsing them — and the check's verdict is
// go/parser's on the whole file.
func TestRowGrammarAgreesWithTheParser(t *testing.T) {
	nests := []*loop.Nest{loop.L1(), loop.L2(), loop.L3(), loop.L4(), loop.L5(4),
		lang.MustParse("for i = -3 to 2\n  for j = 0 to 3\n    A[i, j] = A[i - 1, j + 1] + B[j, -i]\n  end\nend\n")}
	for _, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil && nest.Validate() == nil {
			nests = append(nests, nest)
		}
	}
	tables := 0
	for i, nest := range nests {
		for _, src := range generateAll(t, nest, 4) {
			head, rest, rows := split(t, src)
			if table := rest[rows[0]:rows[1]]; table != "" {
				tables++
				if !tableRows(table) {
					t.Fatalf("nest %d: the emitted rows do not match the row grammar:\n%s", i, table)
				}
			}
			if err, whole := parses(head, rest, rows), parsesWhole(src); (err == nil) != (whole == nil) {
				t.Fatalf("nest %d: check says %v, go/parser says %v", i, err, whole)
			}
		}
	}
	if tables < len(nests) {
		t.Fatalf("only %d PE tables among %d nests", tables, len(nests))
	}
}

// TestRowMutationsAgreeWithTheParser replaces each byte of a small PE
// table's rows with each of the table's own bytes and a few Go
// operators: the check's verdict is go/parser's on the whole file every
// time, and a mutant the grammar accepts always parses.
func TestRowMutationsAgreeWithTheParser(t *testing.T) {
	res, err := partition.Compute(loop.L1(), partition.Mars)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transform.Transform(loop.L1(), res.Psi)
	if err != nil {
		t.Fatal(err)
	}
	asg := assign.Assign(tr, 4)
	src, err := Generate(tr, asg, Options{PEIterations: PETable(res, tr, asg)})
	if err != nil {
		t.Fatal(err)
	}
	head, rest, rows := split(t, src)
	if rows[1]-rows[0] < 50 {
		t.Fatalf("rows region %q is too small to mutate", rest[rows[0]:rows[1]])
	}
	accepted, rejected := 0, 0
	for at := rows[0]; at < rows[1]; at++ {
		for _, b := range []byte("0123456789-{}, \t\n+*/().;x_'\"") {
			if rest[at] == b {
				continue
			}
			mut := rest[:at] + string(b) + rest[at+1:]
			err := parses(head, mut, rows)
			whole := parsesWhole(head + prelude + mut)
			if (err == nil) != (whole == nil) {
				t.Fatalf("byte %d → %q: check says %v, go/parser says %v", at-rows[0], b, err, whole)
			}
			if tableRows(mut[rows[0]:rows[1]]) {
				accepted++
				if whole != nil {
					t.Fatalf("byte %d → %q: the grammar accepts rows go/parser rejects: %v", at-rows[0], b, whole)
				}
			} else {
				rejected++
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("grammar accepted %d mutants and rejected %d; want both", accepted, rejected)
	}
}

// FuzzGenerateParses builds a nest from a loopgen seed, runs every
// strategy and generates each program: every returned source must parse
// whole. Generate checks the PE table's rows by their grammar, not with
// go/parser, so this is the full parse of what it returns.
func FuzzGenerateParses(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rnd := rand.New(rand.NewSource(seed))
		nest := loopgen.Generate(rnd, loopgen.DefaultConfig())
		for _, src := range generateAll(t, nest, 1+rnd.Intn(16)) {
			if err := parsesWhole(src); err != nil {
				t.Fatalf("%v\n%s\n%s", err, nest, src)
			}
		}
	})
}
