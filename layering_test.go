package commfree_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A layering rule: in the non-test files it names (directories, "./..."
// for every package of the module, or single files) apart from those in
// except (files, or directories and everything below them), no syntax
// node may match bad; why says what to do instead.
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

// field matches a struct field of the given name ("" for any) whose type
// satisfies typ.
func field(name string, typ func(ast.Expr) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return false
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				if (name == "" || id.Name == name) && typ(f.Type) {
					return true
				}
			}
		}
		return false
	}
}

// signalChan matches the type chan struct{}.
func signalChan(t ast.Expr) bool {
	ch, ok := t.(*ast.ChanType)
	if !ok {
		return false
	}
	st, ok := ch.Value.(*ast.StructType)
	return ok && len(st.Fields.List) == 0
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

// panicsWith matches a panic call whose argument names the identifier
// (alone or as pkg.name).
func panicsWith(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if !calls("", "panic")(n) {
			return false
		}
		found := false
		ast.Inspect(n.(*ast.CallExpr).Args[0], func(a ast.Node) bool {
			found = found || names(name)(a)
			return !found
		})
		return found
	}
}

// results matches the declaration of a function or method of the given
// name with more than limit results.
func results(name string, limit int) func(ast.Node) bool {
	return func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		return ok && fn.Name.Name == name && fn.Type.Results.NumFields() > limit
	}
}

// emitsMod matches a string literal that writes a call of the generated
// program's mod other than its definition and the strided forall start,
// lo + mod(pe[m]-mod(lo, p), p).
func emitsMod(n ast.Node) bool {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	v := strings.NewReplacer("func mod(", "", "mod(pe[%d]-mod(lo%d, ", "").Replace(lit.Value)
	return strings.Contains(v, "mod(")
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
		why:   "formatted keys on the compile path: compare the integer coefficients with `slices.Equal`",
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
		why:   "a divisibility guard on the transformed loop: T is unimodular, so T⁻¹·J is an iteration at every point the bounds admit and Original has no failure to report",
		files: []string{"internal/transform", "internal/codegen"},
		bad:   either(names("divide"), results("Original", 1), emitsMod),
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
		why:    "a second coalescing mechanism in the service: share one computation among callers with flight.go's group (per key) or lazy (kept)",
		files:  []string{"internal/service"},
		except: []string{"internal/service/flight.go"},
		bad:    either(calls("sync", "OnceValue"), calls("sync", "OnceValues"), field("", signalChan)),
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
	{
		why:   "a second exact-arithmetic core: intlin.Mat and its fraction-free elimination are the only matrix, int64 with intlin's checked helpers the only number",
		files: []string{"./..."},
		bad:   imports("linalg", "rational"),
	},
	{
		why:    "overflow is refused in one place: do the arithmetic with intlin's checked helpers (Add, Mul, MulAdd, Neg, Abs), which raise intlin.ErrOverflow",
		files:  []string{"./..."},
		except: []string{"internal/intlin/checked.go"},
		bad:    panicsWith("ErrOverflow"),
	},
	{
		why:    "a second compile sequence: compile through the one pipeline, selector.Compile (admission, selection, verify), or rank with selector.Best",
		files:  []string{"./..."},
		except: []string{"internal/selector", "internal/report", "internal/conformance"},
		bad:    calls("partition", "NewContext"),
	},
	{
		why:    "selection outside the pipeline: call selector.Compile, which admits the nest before Evaluate analyses it and verifies what it keeps",
		files:  []string{"./..."},
		except: []string{"internal/selector"},
		bad:    calls("selector", "Evaluate"),
	},
	{
		why:    "a second materialized enumeration of a nest: step through it with Nest.Walk, or read the compile's loop.Index",
		files:  []string{"./..."},
		except: []string{"internal/loop"},
		bad:    calls("", "Iterations"),
	},
}

// packageDirs lists the module's package directories with non-test Go
// files, slash-separated and relative to the root ("." for the root);
// the nested benchmark module and testdata trees are not part of it.
func packageDirs(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p == "bench" || name == "testdata" || p != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// nonTestFiles lists a directory's non-test Go files.
func nonTestFiles(t *testing.T, dir string) []string {
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(all) == 0 {
		t.Fatalf("no Go files under %s: %v", dir, err)
	}
	return slices.DeleteFunc(all, func(p string) bool { return strings.HasSuffix(p, "_test.go") })
}

// TestLayering holds the non-test sources to layeringRules.
func TestLayering(t *testing.T) {
	fset := token.NewFileSet()
	excepted := func(rule layeringRule, p string) bool {
		return slices.ContainsFunc(rule.except, func(e string) bool {
			return p == e || strings.HasPrefix(p, e+"/")
		})
	}
	for _, rule := range layeringRules {
		var paths []string
		for _, f := range rule.files {
			switch {
			case strings.HasSuffix(f, ".go"):
				paths = append(paths, f)
			case f == "./...":
				for _, dir := range packageDirs(t) {
					paths = append(paths, nonTestFiles(t, dir)...)
				}
			default:
				paths = append(paths, nonTestFiles(t, f)...)
			}
		}
		for _, p := range paths {
			if excepted(rule, filepath.ToSlash(p)) {
				continue
			}
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
	t.Run("every package is reached", everyPackageIsReached)
}

// unreachedByDesign are the packages no command, example or the facade
// imports, each with the reason it stays.
var unreachedByDesign = map[string]string{
	"internal/conformance": "test harness: the theorem, engine and fleet properties its tests and fuzzers check",
	"internal/loopgen":     "test harness: the random nest generator the conformance and codegen tests draw from",
}

// everyPackageIsReached: every package is in the import closure of
// the non-test files of the commands, the examples and the root facade,
// or is named in unreachedByDesign. A package only a benchmark or a test
// reaches is code nothing in the system runs.
func everyPackageIsReached(t *testing.T) {
	const module = "commfree"
	dirs := packageDirs(t)
	imports := map[string][]string{}
	for _, dir := range dirs {
		for _, p := range nonTestFiles(t, dir) {
			file, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range file.Imports {
				if ip, _ := strconv.Unquote(spec.Path.Value); strings.HasPrefix(ip, module+"/") {
					imports[dir] = append(imports[dir], strings.TrimPrefix(ip, module+"/"))
				}
			}
		}
	}
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, d := range imports[dir] {
			visit(d)
		}
	}
	for _, dir := range dirs {
		if top, _, _ := strings.Cut(dir, "/"); dir == "." || top == "cmd" || top == "examples" {
			visit(dir)
		}
	}
	for _, dir := range dirs {
		why, excused := unreachedByDesign[dir]
		switch {
		case !reached[dir] && !excused:
			t.Errorf("%s: no command, example or the facade imports it; delete it or give its claim a report section", path.Join(module, dir))
		case reached[dir] && excused:
			t.Errorf("%s is reached now; drop it from unreachedByDesign (%s)", dir, why)
		}
	}
}

// shipsByDesign are the non-test functions no command, example, the
// benchmark or a facade function links, each with the test, fuzz target
// or harness that needs it. Keys are "dir.Func", "dir.Type.Method" or a
// file, "dir/name.go", for every function it declares; dir is relative
// to the module root.
var shipsByDesign = map[string]string{
	"internal/chaos.Injector.MaxFailuresPerBlock": "conformance.CheckChaos bounds the retry count by it",
	"internal/cluster.WithSeed":                   "conformance.CheckCluster seeds the fleet's detectors",
	"internal/cluster.WithNodeConfig":             "conformance.CheckMembership arms the migration-drop fault; the cluster hop and membership tests",
	"internal/cluster.Local.Node":                 "the cluster shed, hop and node tests reach one node of the in-process fleet",
	"internal/cluster.Local.Tick":                 "conformance.CheckCluster steps the heartbeat rounds of the crash replay",
	"internal/cluster.Local.Join":                 "conformance.CheckMembership's join epoch",
	"internal/cluster.Local.Leave":                "conformance.CheckMembership's leave epoch",
	"internal/cluster.Local.membershipOp":         "Local.Join and Local.Leave",
	"internal/cluster.MovedKeys":                  "conformance.CheckMembership: the key set a join must move",
	"internal/cluster.MapTransport.SetFail":       "conformance.CheckCluster's crash schedule; the cluster node and hop tests",
	"internal/cluster.MapTransport.SetDelay":      "the cluster hop, node and hedging-experiment tests",
	"internal/exec.ParseKey":                      "conformance.CheckNormalize maps keyed states back through OldIndex; normalize_test.go",
	"internal/intlin.Mat.Det":                     "conformance.Check and transform's unimodularity tests: T is unimodular",
	"internal/lang.AffineNest.SymNames":           "loopgen's affine generator; affine_test.go",
	"internal/lang.AffineNest.Bind":               "conformance.CheckNormalize and FuzzNormalize ground the symbolic nest",
	"internal/lang.CanonicalSource":               "bench/bench_test.go compares the generated corpus by canonical form",
	"internal/lang.FormatAffineNest":              "loopgen's affine generator and TestNormalizeConformanceRoundTrip",
	"internal/lang.formatRefSyms":                 "FormatAffineNest",
	"internal/lang.formatSymTerm":                 "FormatAffineNest",
	"internal/loop.DefaultTree":                   "kernel's TestRecognize and TestCompileTreeMatchesEval: the default statement semantics as a tree",
	"internal/loop.Nest.Iterations":               "the reference enumeration the Index, Walk, partition and transform tests check against",
	"internal/loop.LexLess":                       "the iteration order the Index, Walk and transform order tests check against",
	"internal/machine.Machine.DataMoved":          "conformance.CheckNormalize compares machine accounting; the machine and distplan tests",
	"internal/machine/routing.go":                 "the link-level mesh simulator: routing_test.go and BenchmarkLinkLevelTableI cross-check Tables I–II with it",
	"internal/normalize.Result.OldIndex":          "conformance.CheckNormalize maps normalized elements back to the source's",
	"internal/report.Figure":                      "BenchmarkFig1–10 and figures_test.go render one figure at a time",
	"internal/space.Space.SubspaceOf":             "conformance.Check's Ψ lattice inclusions; loopgen's tests",
	"internal/transform.Transformed.Original":     "conformance.Check: Original(NewPoint(ī)) = ī",
	"internal/transform.Transformed.NewPoint":     "conformance.Check: Original(NewPoint(ī)) = ī",
}

// TestEveryFunctionShips: every non-test function outside the test
// harnesses is linked into a command, an example, the benchmark or a
// program that references every exported function of the facade and
// every method of *Compilation, or is named in shipsByDesign. The
// binaries are built with inlining off in this module's packages, so
// `go tool nm` lists every function a binary can call.
func TestEveryFunctionShips(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command, example and the benchmark")
	}
	start := time.Now()
	const module = "commfree"
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin") + string(filepath.Separator)
	env := append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
	build := func(dir, out string, pkgs ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=" + module + "/...=-l", "-o", out}, pkgs...)...)
		cmd.Dir, cmd.Env = dir, env
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", pkgs, dir, err, msg)
		}
	}

	// The facade root: a main that references every exported function of
	// package commfree and every exported method of *Compilation.
	facade := filepath.Join(tmp, "facade")
	if err := os.Mkdir(facade, 0o755); err != nil {
		t.Fatal(err)
	}
	var refs []string
	for _, p := range nonTestFiles(t, ".") {
		file, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || !fn.Name.IsExported():
			case fn.Recv == nil:
				refs = append(refs, module+"."+fn.Name.Name)
			case receiverType(fn) == "Compilation":
				refs = append(refs, "(*"+module+".Compilation)."+fn.Name.Name)
			}
		}
	}
	files := map[string]string{
		"go.mod": fmt.Sprintf("module facaderoot\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", module, module, root),
		"main.go": "package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\n\t\"" + module + "\"\n)\n\n" +
			"var roots = []any{\n\t" + strings.Join(refs, ",\n\t") + ",\n}\n\n" +
			"func main() {\n\tif len(os.Args) > 1 {\n\t\tfmt.Println(roots...)\n\t}\n}\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(facade, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Every binary, each with the import path its package main stands for.
	build(root, bin, "./cmd/...", "./examples/...")
	build(filepath.Join(root, "bench"), filepath.Join(tmp, "bench.bin"), ".")
	build(facade, filepath.Join(tmp, "facade.bin"), ".")
	mains := map[string]string{filepath.Join(tmp, "bench.bin"): "", filepath.Join(tmp, "facade.bin"): ""}
	for _, dir := range packageDirs(t) {
		if top, _, _ := strings.Cut(dir, "/"); top == "cmd" || top == "examples" {
			mains[filepath.Join(bin, path.Base(dir))] = module + "/" + dir
		}
	}

	linked := map[string]bool{}
	for binary, mainPath := range mains {
		cmd := exec.Command("go", "tool", "nm", binary)
		cmd.Env = env
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", binary, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(stripTypeArgs(line))
			if len(f) < 3 || f[1] != "T" && f[1] != "t" {
				continue
			}
			name := f[2]
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				if mainPath == "" {
					continue
				}
				name = mainPath + "." + rest
			}
			linked[strings.NewReplacer("(*", "", ")", "").Replace(name)] = true
		}
	}

	// declared holds every function key and file key; excuses counts the
	// unlinked functions each allowlist entry excuses — an entry that
	// excuses none is stale.
	declared, excuses := map[string]bool{}, map[string]int{}
	functions := 0
	for _, dir := range packageDirs(t) {
		if _, harness := unreachedByDesign[dir]; harness {
			continue
		}
		for _, p := range nonTestFiles(t, dir) {
			file, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			fileKey := path.Join(dir, filepath.Base(p))
			declared[fileKey] = true
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil && (fn.Name.Name == "init" || fn.Name.Name == "main") || fn.Name.Name == "_" {
					continue
				}
				functions++
				name := fn.Name.Name
				if fn.Recv != nil {
					name = receiverType(fn) + "." + name
				}
				key := dir + "." + name
				declared[key] = true
				if linked[path.Join(module, dir)+"."+name] {
					continue
				}
				switch {
				case shipsByDesign[fileKey] != "":
					excuses[fileKey]++
				case shipsByDesign[key] != "":
					excuses[key]++
				default:
					t.Errorf("%s.%s: no command, example, the benchmark or the facade links it; delete it, move it into the test that needs it, or name that test in shipsByDesign", path.Join(module, dir), name)
				}
			}
		}
	}
	for key, why := range shipsByDesign {
		switch {
		case !declared[key]:
			t.Errorf("shipsByDesign names %s, which is not declared; drop it", key)
		case excuses[key] == 0:
			t.Errorf("shipsByDesign: everything %s names is linked now; drop it (%s)", key, why)
		}
	}
	t.Logf("%d functions declared, %d binaries read in %v", functions, len(mains), time.Since(start).Round(time.Millisecond))
}

// receiverType names a method's receiver type without its pointer or
// type parameters.
func receiverType(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name
}

// stripTypeArgs drops every bracketed span, nested ones included, so an
// instantiation such as `service.handleJSON[go.shape.struct { A []int }]`
// reads as the generic function's name.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
