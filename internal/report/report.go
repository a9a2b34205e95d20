// Package report generates a live reproduction report in markdown: it
// re-runs the Table I/II simulation, the figures, the kernel gallery, the
// L5 strategy ranking, the strategy comparison, the cache-thrashing count
// and the executed L5′/L5″ plans, and emits the results with the paper's
// reference values alongside — EXPERIMENTS.md, but computed fresh on
// every invocation.
package report

import (
	"fmt"
	"slices"
	"strings"

	"commfree/internal/distplan"
	"commfree/internal/exec"
	"commfree/internal/kernels"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
	"commfree/internal/selector"
)

// paperTableII holds the paper's measured speedups for comparison.
var paperTableII = map[int]map[int64][2]float64{
	4: {
		16: {2.77, 3.14}, 32: {3.31, 3.70}, 64: {3.63, 3.90},
		128: {3.81, 3.92}, 256: {3.89, 3.95},
	},
	16: {
		16: {2.96, 4.99}, 32: {5.82, 9.70}, 64: {8.80, 12.35},
		128: {11.26, 14.08}, 256: {13.05, 15.14},
	},
}

// sections are the report's parts, in the order Generate renders them.
var sections = []struct {
	name   string
	render func(*strings.Builder, machine.CostModel) error
}{
	{"tables", tablesSection},
	{"figures", figuresSection},
	{"gallery", gallerySection},
	{"selector", selectorSection},
	{"compare", compareSection},
	{"thrashing", thrashingSection},
	{"validate", validateSection},
}

// Sections names every section, in report order.
func Sections() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// Generate produces the markdown report of the named sections, in
// report order. A failed check — validate's executed plans disagreeing
// with sequential execution or sending an inter-node message — is an
// error.
func Generate(names ...string) (string, error) {
	for _, n := range names {
		if !slices.Contains(Sections(), n) {
			return "", fmt.Errorf("unknown section %q (sections: %s)", n, strings.Join(Sections(), ", "))
		}
	}
	var b strings.Builder
	cost := machine.Transputer()
	b.WriteString("# commfree — live reproduction report\n\n")
	fmt.Fprintf(&b, "Cost model: t_comp = %.3gs, t_start = %.3gs, t_comm = %.3gs (Transputer-calibrated).\n\n",
		cost.TComp, cost.TStart, cost.TComm)
	for _, s := range sections {
		if !slices.Contains(names, s.name) {
			continue
		}
		if err := s.render(&b, cost); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

func tablesSection(b *strings.Builder, cost machine.CostModel) error {
	ms, ps := []int64{16, 32, 64, 128, 256}, []int{4, 16}
	rows, err := machine.TableI(ms, ps, cost)
	if err != nil {
		return err
	}
	byP := map[int][]machine.TableRow{}
	for _, r := range rows {
		byP[r.P] = append(byP[r.P], r)
	}
	// line writes one table row: p's measurements (p = 4's for the
	// sequential p = 1), one cell each.
	line := func(p int, loop string, cell func(machine.TableRow) string) {
		fmt.Fprintf(b, "| %d | %s |", p, loop)
		for _, r := range byP[max(p, ps[0])] {
			fmt.Fprintf(b, " %s |", cell(r))
		}
		b.WriteString("\n")
	}
	const header = "| p | loop | 16 | 32 | 64 | 128 | 256 |\n|---|---|---|---|---|---|---|\n"
	b.WriteString("## Table I — execution times (s, simulated)\n\n" + header)
	line(1, "L5", func(r machine.TableRow) string { return fmt.Sprintf("%.4f", r.Sequential) })
	for _, p := range ps {
		line(p, "L5′", func(r machine.TableRow) string { return fmt.Sprintf("%.4f", r.Prime) })
		line(p, "L5″", func(r machine.TableRow) string { return fmt.Sprintf("%.4f", r.DoublePrime) })
	}
	b.WriteString("\n## Table II — speedups (simulated vs. paper)\n\n" + header)
	for _, p := range ps {
		line(p, "L5′ here/paper", func(r machine.TableRow) string {
			return fmt.Sprintf("%.2f / %.2f", r.SpeedupPrime(), paperTableII[p][r.M][0])
		})
		line(p, "L5″ here/paper", func(r machine.TableRow) string {
			return fmt.Sprintf("%.2f / %.2f", r.SpeedupDoublePrime(), paperTableII[p][r.M][1])
		})
	}
	// Shape assertions, verified live.
	ok := true
	for _, r := range rows {
		if r.DoublePrime > r.Prime {
			ok = false
		}
	}
	fmt.Fprintf(b, "\nShape check (L5″ ≤ L5′ at every point): **%v**\n\n", ok)
	return nil
}

func figuresSection(b *strings.Builder, _ machine.CostModel) error {
	b.WriteString("## Figures\n\n```\n")
	for i, fig := range figures {
		s, err := fig()
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(s)
	}
	b.WriteString("```\n\n")
	return nil
}

func gallerySection(b *strings.Builder, _ machine.CostModel) error {
	b.WriteString("## Kernel gallery\n\n")
	b.WriteString("| kernel | non-dup | dup | min non-dup | min dup |\n|---|---|---|---|---|\n")
	for _, k := range kernels.All() {
		outs, err := k.Outcomes()
		if err != nil {
			return err
		}
		fmt.Fprintf(b, "| %s |", k.Name)
		for _, o := range outs {
			mark := ""
			if o.VerifyErr != nil {
				mark = " ⚠"
			}
			fmt.Fprintf(b, " %d%s |", o.Blocks, mark)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n(cells = communication-free blocks; every partition verified exhaustively)\n\n")
	return nil
}

func selectorSection(b *strings.Builder, cost machine.CostModel) error {
	b.WriteString("## Strategy selection (L5, M=8, p=4)\n\n```\n")
	_, all, err := selector.Best(loop.L5(8), 4, cost)
	if err != nil {
		return err
	}
	b.WriteString(selector.Report(all))
	b.WriteString("```\n")
	return nil
}

func validateSection(b *strings.Builder, cost machine.CostModel) error {
	return validate(b, cost, distplan.ParallelPlanned)
}

// validate compiles L5′ (B duplicated) and L5″ (duplicate strategy) at
// four (M, p) cells, runs each with run — under its derived plan, with
// real data and strictly local memories — and compares the final states
// with sequential matrix multiplication. Any mismatch or inter-node
// message fails it.
func validate(b *strings.Builder, cost machine.CostModel,
	run func(*partition.Result, int, machine.CostModel) (*exec.Report, *distplan.Plan, error)) error {
	b.WriteString("## Validation — compiled L5′/L5″ plans on real data\n\n")
	b.WriteString("| M | p | L5′ | L5″ |\n|---|---|---|---|\n")
	for _, c := range []struct {
		m int64
		p int
	}{{16, 4}, {16, 16}, {32, 16}, {64, 16}} {
		nest := loop.L5(c.m)
		want := exec.Sequential(nest, nil)
		fmt.Fprintf(b, "| %d | %d |", c.m, c.p)
		ok := true
		prime, err := partition.ComputeSelective(nest, map[string]bool{"B": true})
		if err != nil {
			return err
		}
		doublePrime, err := partition.Compute(nest, partition.Duplicate)
		if err != nil {
			return err
		}
		for _, res := range []*partition.Result{prime, doublePrime} {
			rep, plan, err := run(res, c.p, cost)
			if err != nil {
				return err
			}
			correct := exec.Mismatches(rep.Final, want) == 0 && rep.Machine.InterNodeMessages() == 0
			ok = ok && correct
			st := plan.Stats()
			fmt.Fprintf(b, " correct=%v (%d unicasts, %d multicasts, %d broadcasts) |",
				correct, st.Unicasts, st.Multicasts, st.Broadcasts)
		}
		b.WriteString("\n")
		if !ok {
			return fmt.Errorf("validation failed at M=%d p=%d", c.m, c.p)
		}
	}
	b.WriteString("\n")
	return nil
}
