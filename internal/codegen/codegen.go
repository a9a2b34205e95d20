// Package codegen emits standalone Go source for a transformed loop — the
// code-generation back end of the parallelizing compiler. The generated
// program contains:
//
//   - runSequential(mem): the transformed loop (forall levels iterated in
//     lexicographic order) against a single memory — the semantics
//     reference;
//   - runPE(pe, mem): the per-processor SPMD body in the paper's final
//     form, with cyclically strided forall loops
//     (I′ = l′ + ((a − l′ mod p) mod p) … step p), extended statements,
//     and the original loop body;
//   - a main() that executes runSequential, then every processor, and
//     prints the written array state plus per-processor iteration counts
//     so a harness can diff against the library's executors.
//
// Loop bounds are emitted exactly: rational max/min bound terms become
// ceilDiv/floorDiv over scaled integers. T is unimodular, so every point
// the loops reach is an iteration and index recovery needs no guard.
package codegen

import (
	"fmt"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"sync"

	"commfree/internal/assign"
	"commfree/internal/partition"
	"commfree/internal/transform"
)

// Options controls generation.
type Options struct {
	// PackageName of the emitted file; defaults to "main".
	PackageName string
	// PEIterations, when non-nil, replaces the cyclically strided SPMD
	// loops with a table-driven runPE: PEIterations[id] lists the
	// original iteration vectors processor id executes, in program
	// order. Usage-based (MARS) partitions need this — their blocks are
	// flow closures, not affine cosets of the forall grid, so no strided
	// loop enumerates exactly one processor's share. Build the table
	// with PETable.
	PEIterations [][][]int64
}

// PETable builds Options.PEIterations for a grouped partition: every
// block runs wholly on the processor the assignment's Blocks puts it on
// (its base point's), and each
// processor's list is sorted to program order (intra-block flow needs
// writers before readers; blocks are private so inter-block order is
// free).
func PETable(res *partition.Result, tr *transform.Transformed, asg *assign.Assignment) [][][]int64 {
	// Program order is position order in the partition's Index.
	owner, sizes := asg.Blocks(res.Iter)
	pos := make([][]int32, len(sizes))
	for id, n := range sizes {
		pos[id] = make([]int32, 0, n)
	}
	for bi, b := range res.Iter.Blocks {
		pos[owner[bi]] = append(pos[owner[bi]], b.Pos...)
	}
	table := make([][][]int64, len(pos))
	for id, ps := range pos {
		slices.Sort(ps)
		table[id] = make([][]int64, len(ps))
		for i, p := range ps {
			table[id][i] = res.Iter.Index.Points[p]
		}
	}
	return table
}

// Generate emits the program for a transformed loop and its processor
// assignment. Every source it returns parses as Go.
func Generate(tr *transform.Transformed, asg *assign.Assignment, opts Options) (string, error) {
	if opts.PackageName == "" {
		opts.PackageName = "main"
	}
	g := &gen{tr: tr, asg: asg, peIters: opts.PEIterations}
	head := fmt.Sprintf("// Code generated by commfree; DO NOT EDIT.\n"+
		"// Transformed loop: %d forall level(s) × %d sequential level(s), grid %v.\n"+
		"package %s\n\n", tr.K, tr.G, asg.Dims, opts.PackageName)
	var b strings.Builder
	g.emitBody(&b)
	g.emitSequential(&b)
	g.emitPE(&b)
	g.emitMain(&b)
	rest := b.String()
	src := head + prelude + rest
	if err := parses(head, rest, g.rows); err != nil {
		return src, fmt.Errorf("codegen: generated source does not parse: %w", err)
	}
	return src, nil
}

// parses checks that head + prelude + rest parses without parsing the
// constant prelude again. A Go file is a package clause, imports, then
// declarations, so the whole parses exactly when the prelude (imports and
// declarations) parses, head + rest parses and rest holds no import.
//
// rest[rows[0]:rows[1]] are the PE table's rows, which are checked by
// their grammar (tableRows) rather than by go/parser: rows that match it
// are elements of a composite literal, so the file parses exactly when
// the rest with the rows left out parses. Rows that do not match go to
// go/parser with the rest. Blanked lines — the prelude's and the rows' —
// keep their newlines, so an error's position is its line in the
// returned source.
func parses(head, rest string, rows [2]int) error {
	if err := preludeParses(); err != nil {
		return err
	}
	src := head + preludeLines + rest
	if table := rest[rows[0]:rows[1]]; table != "" && tableRows(table) {
		src = head + preludeLines + rest[:rows[0]] + strings.Repeat("\n", strings.Count(table, "\n")) + rest[rows[1]:]
	}
	f, err := parser.ParseFile(token.NewFileSet(), "generated.go", src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	if len(f.Imports) > 0 {
		return fmt.Errorf("generated.go: import after the prelude's declarations")
	}
	return nil
}

var (
	preludeLines  = strings.Repeat("\n", strings.Count(prelude, "\n"))
	preludeParses = sync.OnceValue(func() error {
		_, err := parser.ParseFile(token.NewFileSet(), "prelude.go", "package main\n"+prelude, parser.SkipObjectResolution)
		return err
	})
)

// tableRows reports whether s is a run of PE-table rows, each
//
//	row  = "\t{" [item {", " item}] "},\n"
//	item = "{" int {", " int} "}"
//	int  = ["-"] ("0" | "1"…"9" {"0"…"9"})
//
// — what emitPETable writes.
func tableRows(s string) bool {
	for len(s) > 0 {
		var ok bool
		if s, ok = strings.CutPrefix(s, "\t{"); !ok {
			return false
		}
		for len(s) > 0 && s[0] == '{' {
			for s = s[1:]; ; s = s[2:] {
				if s, ok = cutInt(s); !ok {
					return false
				}
				if !strings.HasPrefix(s, ", ") {
					break
				}
			}
			if s, ok = strings.CutPrefix(s, "}"); !ok {
				return false
			}
			if !strings.HasPrefix(s, ", {") {
				break
			}
			s = s[2:]
		}
		if s, ok = strings.CutPrefix(s, "},\n"); !ok {
			return false
		}
	}
	return true
}

// cutInt cuts one decimal integer in strconv's spelling off the front of
// s.
func cutInt(s string) (string, bool) {
	s = strings.TrimPrefix(s, "-")
	switch {
	case s == "":
		return s, false
	case s[0] == '0':
		return s[1:], true
	case s[0] < '1' || s[0] > '9':
		return s, false
	}
	i := 1
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return s[i:], true
}

type gen struct {
	tr      *transform.Transformed
	asg     *assign.Assignment
	peIters [][][]int64
	// rows is where the PE table's rows lie in the emitted text.
	rows [2]int
}

const prelude = `import (
	"fmt"
	"sort"
)

// mem is a processor-local memory; reads of unwritten elements fall back
// to the deterministic initial value.
type mem struct {
	vals    map[string]float64
	written map[string]bool
}

func newMem() *mem {
	return &mem{vals: map[string]float64{}, written: map[string]bool{}}
}

func key(array string, idx ...int64) string { return fmt.Sprint(array, idx) }

func initValue(array string, idx ...int64) float64 {
	h := float64(len(array)) * 7
	for _, c := range array {
		h = h*31 + float64(c%13)
	}
	for _, x := range idx {
		h = h*31 + float64(x)
	}
	return float64(int64(h) % 1009)
}

func (m *mem) read(array string, idx ...int64) float64 {
	k := key(array, idx...)
	if v, ok := m.vals[k]; ok {
		return v
	}
	return initValue(array, idx...)
}

func (m *mem) write(array string, idx []int64, v float64) {
	k := key(array, idx...)
	m.vals[k] = v
	m.written[k] = true
}

func ceilDiv(a, b int64) int64 {
	if b < 0 {
		a, b = -a, -b
	}
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	if b < 0 {
		a, b = -a, -b
	}
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

func maxI(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func minI(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func mod(a, p int64) int64 { return ((a % p) + p) % p }

`

// goIdent spells a loop variable's name as a Go identifier.
var goIdent = strings.NewReplacer("'", "p", "-", "_")

// varName returns the Go identifier of new-loop variable m.
func (g *gen) varName(m int) string { return goIdent.Replace(g.tr.Names[m]) }

// origName returns the Go identifier of original index lvl.
func (g *gen) origName(lvl int) string { return goIdent.Replace(g.tr.Nest.Levels[lvl].Name) }

// linear renders Σ coeffs[j]·name(j) + konst as Go, leaving out zero
// terms and a zero constant (unless nothing else is left).
func linear(coeffs []int64, konst int64, name func(int) string) string {
	var terms []string
	for j, c := range coeffs {
		switch c {
		case 0:
		case 1:
			terms = append(terms, name(j))
		case -1:
			terms = append(terms, "-"+name(j))
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", c, name(j)))
		}
	}
	if konst != 0 || len(terms) == 0 {
		terms = append(terms, strconv.FormatInt(konst, 10))
	}
	return strings.ReplaceAll(strings.Join(terms, " + "), "+ -", "- ")
}

// boundExpr renders one bound term in the integer form transform holds
// it in: its numerator, divided by Den with ceilDiv (lower) or floorDiv
// (upper) when Den is not 1.
func (g *gen) boundExpr(t transform.BoundTerm, lower bool) string {
	sum := linear(t.Coeffs, t.Const, g.varName)
	switch {
	case t.Den == 1:
		return sum
	case lower:
		return fmt.Sprintf("ceilDiv(%s, %d)", sum, t.Den)
	default:
		return fmt.Sprintf("floorDiv(%s, %d)", sum, t.Den)
	}
}

// boundList renders a max(...)/min(...) bound.
func (g *gen) boundList(terms []transform.BoundTerm, lower bool) string {
	fn := "maxI"
	if !lower {
		fn = "minI"
	}
	if len(terms) == 1 {
		return g.boundExpr(terms[0], lower)
	}
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = g.boundExpr(t, lower)
	}
	return fn + "(" + strings.Join(parts, ", ") + ")"
}

// affineIdx renders an array subscript Σ H[row]·orig + off as Go.
func (g *gen) affineIdx(h []int64, off int64) string {
	return linear(h, off, g.origName)
}

// emitBody writes runBody: the loop body given all original indices.
func (g *gen) emitBody(b *strings.Builder) {
	nest := g.tr.Nest
	b.WriteString("// runBody executes the loop body at one original iteration.\n")
	fmt.Fprintf(b, "func runBody(mm *mem")
	for lvl := range nest.Levels {
		fmt.Fprintf(b, ", %s int64", g.origName(lvl))
	}
	b.WriteString(") {\n")
	idxExprs := make([]string, len(nest.Levels))
	for lvl := range nest.Levels {
		idxExprs[lvl] = "float64(" + g.origName(lvl) + ")"
	}
	vcount := 0
	for _, st := range nest.Body {
		readExprs := make([]string, len(st.Reads))
		for ri, r := range st.Reads {
			v := fmt.Sprintf("v%d", vcount)
			vcount++
			var subs []string
			for row := range r.H {
				subs = append(subs, g.affineIdx(r.H[row], r.Offset[row]))
			}
			fmt.Fprintf(b, "\t%s := mm.read(%q, %s)\n", v, r.Array, strings.Join(subs, ", "))
			readExprs[ri] = v
		}
		var wsubs []string
		for row := range st.Write.H {
			wsubs = append(wsubs, g.affineIdx(st.Write.H[row], st.Write.Offset[row]))
		}
		fmt.Fprintf(b, "\tmm.write(%q, []int64{%s}, %s)\n",
			st.Write.Array, strings.Join(wsubs, ", "), st.RenderRHS(readExprs, idxExprs))
	}
	b.WriteString("}\n\n")
}

// emitLoopNest writes the transformed loops from level `from` to the body,
// with an optional per-forall-level stride spec.
func (g *gen) emitLoopNest(b *strings.Builder, indent string, strided bool) {
	tr := g.tr
	n := tr.Nest.Depth()
	for m := 0; m < n; m++ {
		v := g.varName(m)
		lo := g.boundList(tr.Bounds[m].Lower, true)
		hi := g.boundList(tr.Bounds[m].Upper, false)
		if strided && m < tr.K {
			// Paper form: start at l′ + mod(a − mod(l′, p), p), step p.
			fmt.Fprintf(b, "%slo%d := int64(%s)\n", indent, m, lo)
			fmt.Fprintf(b, "%sfor %s := lo%d + mod(pe[%d]-mod(lo%d, %d), %d); %s <= %s; %s += %d {\n",
				indent, v, m, m, m, g.asg.Dims[m], g.asg.Dims[m], v, hi, v, g.asg.Dims[m])
		} else {
			fmt.Fprintf(b, "%sfor %s := int64(%s); %s <= %s; %s++ {\n", indent, v, lo, v, hi, v)
		}
		indent += "\t"
	}
	// Recover the original indices: a unit-row sequential variable is its
	// level; every other level is its integer row of T⁻¹ times J.
	for i, z := range tr.InnerLevels {
		if z >= 0 {
			fmt.Fprintf(b, "%s%s := %s\n", indent, g.origName(z), g.varName(tr.K+i))
		}
	}
	for lvl := range tr.Nest.Levels {
		if !slices.Contains(tr.InnerLevels, lvl) {
			fmt.Fprintf(b, "%s%s := %s\n", indent, g.origName(lvl), linear(tr.Inv.Row(lvl), 0, g.varName))
		}
	}
	fmt.Fprintf(b, "%scount++\n", indent)
	fmt.Fprintf(b, "%srunBody(mm", indent)
	for lvl := range tr.Nest.Levels {
		fmt.Fprintf(b, ", %s", g.origName(lvl))
	}
	b.WriteString(")\n")
	for m := n - 1; m >= 0; m-- {
		fmt.Fprintf(b, "%s}\n", strings.Repeat("\t", m+1))
	}
}

func (g *gen) emitSequential(b *strings.Builder) {
	b.WriteString("// runSequential executes the whole transformed loop against one memory\n")
	b.WriteString("// (forall points in lexicographic order).\n")
	b.WriteString("func runSequential(mm *mem) int64 {\n\tvar count int64\n")
	g.emitLoopNest(b, "\t", false)
	b.WriteString("\treturn count\n}\n\n")
}

func (g *gen) emitPE(b *strings.Builder) {
	if g.peIters != nil {
		g.emitPETable(b)
		return
	}
	fmt.Fprintf(b, "// runPE executes the block set of one processor of the %v grid.\n", g.asg.Dims)
	b.WriteString("func runPE(pe []int64, mm *mem) int64 {\n\tvar count int64\n")
	if g.tr.K == 0 {
		// Sequential loop: only processor 0 works.
		b.WriteString("\tif len(pe) != 0 {\n\t\treturn 0\n\t}\n")
		g.emitLoopNest(b, "\t", false)
	} else {
		g.emitLoopNest(b, "\t", true)
	}
	b.WriteString("\treturn count\n}\n\n")
}

// emitPETable writes the table-driven SPMD form: the per-processor
// iteration lists are emitted literally and runPE replays them through
// runBody in program order.
func (g *gen) emitPETable(b *strings.Builder) {
	nest := g.tr.Nest
	fmt.Fprintf(b, "// peIters lists each processor's original iterations (usage-based\n")
	fmt.Fprintf(b, "// partition: blocks are flow closures, emitted as an explicit table).\n")
	b.WriteString("var peIters = [][][]int64{\n")
	g.rows[0] = b.Len()
	var row []byte
	for _, its := range g.peIters {
		row = append(row[:0], "\t{"...)
		for i, it := range its {
			if i > 0 {
				row = append(row, ", "...)
			}
			row = append(row, '{')
			for j, x := range it {
				if j > 0 {
					row = append(row, ", "...)
				}
				row = strconv.AppendInt(row, x, 10)
			}
			row = append(row, '}')
		}
		b.Write(append(row, "},\n"...))
	}
	g.rows[1] = b.Len()
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// runPE executes the iteration table of one processor of the %v grid.\n", g.asg.Dims)
	b.WriteString("func runPE(pe []int64, mm *mem) int64 {\n")
	b.WriteString("\tid := 0\n")
	for i, d := range g.asg.Dims {
		fmt.Fprintf(b, "\tid = id*%d + int(pe[%d])\n", d, i)
	}
	if len(g.asg.Dims) == 0 {
		b.WriteString("\t_ = pe\n")
	}
	b.WriteString("\tvar count int64\n")
	b.WriteString("\tfor _, it := range peIters[id] {\n")
	b.WriteString("\t\tcount++\n")
	b.WriteString("\t\trunBody(mm")
	for lvl := range nest.Levels {
		fmt.Fprintf(b, ", it[%d]", lvl)
	}
	b.WriteString(")\n\t}\n\treturn count\n}\n\n")
}

func (g *gen) emitMain(b *strings.Builder) {
	dims := g.asg.Dims
	b.WriteString(`func main() {
	seq := newMem()
	seqCount := runSequential(seq)
	keys := make([]string, 0, len(seq.written))
	for k := range seq.written {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("iterations", seqCount)
	for _, k := range keys {
		fmt.Printf("%s=%v\n", k, seq.vals[k])
	}
`)
	// Enumerate processors.
	if len(dims) == 0 {
		b.WriteString("\tpeCount := runPE(nil, newMem())\n")
		b.WriteString("\tfmt.Println(\"pe\", 0, peCount)\n")
	} else {
		b.WriteString("\tpe := make([]int64, " + fmt.Sprint(len(dims)) + ")\n")
		b.WriteString("\tid := 0\n")
		for i, d := range dims {
			fmt.Fprintf(b, "%sfor a%d := int64(0); a%d < %d; a%d++ {\n",
				strings.Repeat("\t", i+1), i, i, d, i)
			fmt.Fprintf(b, "%spe[%d] = a%d\n", strings.Repeat("\t", i+2), i, i)
		}
		in := strings.Repeat("\t", len(dims)+1)
		b.WriteString(in + "fmt.Println(\"pe\", id, runPE(pe, newMem()))\n")
		b.WriteString(in + "id++\n")
		for i := len(dims) - 1; i >= 0; i-- {
			b.WriteString(strings.Repeat("\t", i+1) + "}\n")
		}
	}
	b.WriteString("}\n")
}
