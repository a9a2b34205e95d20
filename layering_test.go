package commfree_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A layering rule: in the non-test files it names (directories, or single
// files) apart from those in except, no syntax node may match bad; why
// says what to do instead.
type layeringRule struct {
	why    string
	files  []string
	except []string
	bad    func(ast.Node) bool
}

// calls matches a call of pkg.name; pkg "" matches any receiver or
// package, i.e. every call of a method or function so named, unqualified
// calls included.
func calls(pkg, name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			return pkg == "" && id.Name == name
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return pkg == "" || ok && x.Name == pkg
	}
}

// imports matches an import of any of this module's internal packages
// named.
func imports(pkgs ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		spec, ok := n.(*ast.ImportSpec)
		if !ok {
			return false
		}
		for _, p := range pkgs {
			if spec.Path.Value == strconv.Quote("commfree/internal/"+p) {
				return true
			}
		}
		return false
	}
}

// names matches any use or declaration of one of the identifiers.
func names(ids ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		for _, name := range ids {
			if id.Name == name {
				return true
			}
		}
		return false
	}
}

// field matches a struct field of the given name whose type satisfies typ.
func field(name string, typ func(ast.Expr) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return false
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if id.Name == name && typ(f.Type) {
					return true
				}
			}
		}
		return false
	}
}

// stringMap matches a map type keyed by string.
func stringMap(n ast.Node) bool {
	m, ok := n.(*ast.MapType)
	if !ok {
		return false
	}
	key, ok := m.Key.(*ast.Ident)
	return ok && key.Name == "string"
}

func either(preds ...func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		for _, p := range preds {
			if p(n) {
				return true
			}
		}
		return false
	}
}

// layeringRules is the layering the compile path keeps, as syntax: what a
// package below a boundary must not name, because something above the
// boundary already holds it.
var layeringRules = []layeringRule{
	{
		why:   "string-keyed index over a partition: key by loop.Ranker rank (or read the partition's sorted element lists) instead",
		files: []string{"internal/partition", "internal/redundant", "internal/mars", "internal/distplan", "internal/layout"},
		bad:   calls("fmt", "Sprint"),
	},
	{
		why:   "formatted keys on the compile path: compare coefficients with `Rat.Equal`",
		files: []string{"internal/polyhedron", "internal/transform"},
		bad:   either(calls("fmt", "Sprint"), stringMap),
	},
	{
		why:   "store revival re-derives what the record's Ψ already determines: materialize from (nest, strategy, Ψ) instead",
		files: []string{"internal/service/store.go"},
		bad:   either(calls("", "NewContext"), imports("deps", "transform", "assign")),
	},
	{
		why:   "exec derives what the partition already holds: place blocks with assign.Place(res.Iter.Q, p), test redundancy with RedundantAt(stmt, pos)",
		files: []string{"internal/exec"},
		bad:   either(imports("transform"), calls("assign", "Assign"), names("redundantBits", "maxRankedBits")),
	},
	{
		why:   "distplan evaluates statements: run the blocks through exec.RunDistributed",
		files: []string{"internal/distplan"},
		bad:   names("EvalExpr"),
	},
	{
		why:   "a block lists its iterations twice: its points are Index.Points[pos] for pos in Block.Pos",
		files: []string{"internal/partition"},
		bad:   field("Iterations", func(ast.Expr) bool { return true }),
	},
	{
		why:   "a result stores its data partitions: derive them with (*Result).DataPartition, count them in footprints",
		files: []string{"internal/partition"},
		bad:   field("Data", func(t ast.Expr) bool { _, isMap := t.(*ast.MapType); return isMap }),
	},
	{
		why:   "a second search of the forall space: read the one enumeration (ForallPoints, BlockSizes)",
		files: []string{"internal/transform"},
		bad:   names("blockNonEmpty"),
	},
	{
		why:   "a second walk of the transformed loop: read Transformed.ForallPoints and BlockSizes",
		files: []string{"internal/assign", "internal/selector", "internal/service"},
		bad:   calls("", "Visit"),
	},
	{
		why:   "the blocking pool path is back: every caller goes through trySubmit",
		files: []string{"internal/service"},
		bad: func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			return ok && fn.Recv != nil && fn.Name.Name == "submit"
		},
	},
	{
		why:   "a hand-written executor beside the compiler's: compile `loop.L5(m)` and run its plan",
		files: []string{"internal/machine"},
		bad:   names("RunL5Prime", "RunL5DoublePrime", "SequentialMatMul", "GatherOwned"),
	},
	{
		why:    "element keys are a view: keep the dense engine's state in its program's layout (exec.State, the arena) and format keys only in exec.go's keyed views",
		files:  []string{"internal/exec"},
		except: []string{"internal/exec/exec.go"},
		bad:    either(calls("", "appendKey"), calls("", "Key")),
	},
}

// TestLayering holds the non-test sources to layeringRules.
func TestLayering(t *testing.T) {
	fset := token.NewFileSet()
	for _, rule := range layeringRules {
		var paths []string
		for _, f := range rule.files {
			if strings.HasSuffix(f, ".go") {
				paths = append(paths, f)
				continue
			}
			all, err := filepath.Glob(filepath.Join(f, "*.go"))
			if err != nil || len(all) == 0 {
				t.Fatalf("no Go files under %s: %v", f, err)
			}
			for _, p := range all {
				if !strings.HasSuffix(p, "_test.go") && !slices.Contains(rule.except, filepath.ToSlash(p)) {
					paths = append(paths, p)
				}
			}
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			file, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if n != nil && rule.bad(n) {
					t.Errorf("%s: %s", fset.Position(n.Pos()), rule.why)
				}
				return true
			})
		}
	}
}
