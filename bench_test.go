package commfree

// Benchmark harness: one benchmark per paper table and figure (the
// regeneration path measured end to end), plus the ablation benches
// called out in DESIGN.md.

import (
	"fmt"
	"math/big"
	"testing"

	"commfree/internal/assign"
	"commfree/internal/codegen"
	"commfree/internal/deps"
	"commfree/internal/distplan"
	"commfree/internal/intlin"
	"commfree/internal/kernels"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
	"commfree/internal/report"
	"commfree/internal/space"
	"commfree/internal/transform"
)

// --- Figures 1–5, 8–10 -------------------------------------------------

func benchFig(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := report.Figure(n)
		if err != nil || len(s) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)  { benchFig(b, 1) }
func BenchmarkFig2(b *testing.B)  { benchFig(b, 2) }
func BenchmarkFig3(b *testing.B)  { benchFig(b, 3) }
func BenchmarkFig4(b *testing.B)  { benchFig(b, 4) }
func BenchmarkFig5(b *testing.B)  { benchFig(b, 5) }
func BenchmarkFig8(b *testing.B)  { benchFig(b, 8) }
func BenchmarkFig9(b *testing.B)  { benchFig(b, 9) }
func BenchmarkFig10(b *testing.B) { benchFig(b, 10) }

// --- Tables I and II ----------------------------------------------------

// BenchmarkTableI measures regenerating the full Table I grid (all five
// problem sizes on 4 and 16 processors) from the machine simulator.
func BenchmarkTableI(b *testing.B) {
	cost := machine.Transputer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := machine.TableI([]int64{16, 32, 64, 128, 256}, []int{4, 16}, cost)
		if err != nil || len(rows) != 10 {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII measures the speedup derivation on top of Table I.
func BenchmarkTableII(b *testing.B) {
	cost := machine.Transputer()
	rows, err := machine.TableI([]int64{16, 32, 64, 128, 256}, []int{4, 16}, cost)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			sink += r.SpeedupPrime() + r.SpeedupDoublePrime()
		}
	}
	_ = sink
}

// BenchmarkTableIExecuted measures the real-data execution path (M=16,
// p=16, L5″) — compile, derived plan, goroutines, local memories, gather.
func BenchmarkTableIExecuted(b *testing.B) {
	cost := machine.Transputer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, _, err := RunL5DoublePrime(16, 16, cost)
		if err != nil || len(rep.Final) != 256 || rep.Machine.InterNodeMessages() != 0 {
			b.Fatal(err)
		}
	}
}

// --- Pipeline stages ------------------------------------------------------

func BenchmarkAnalyzeL1(b *testing.B) {
	nest := loop.L1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := deps.Analyze(nest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionL1NonDuplicate(b *testing.B) {
	nest := loop.L1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Compute(nest, partition.NonDuplicate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionL3MinimalDuplicate(b *testing.B) {
	nest := loop.L3()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Compute(nest, partition.MinimalDuplicate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformL4(b *testing.B) {
	psi := space.Span(3, []int64{1, -1, 1})
	nest := loop.L4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transform.TransformWithBasis(nest, psi, [][]int64{{1, 1, 0}, {-1, 0, 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileEndToEnd(b *testing.B) {
	nest := loop.L1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileNest(nest, NonDuplicate, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Baseline comparison ---------------------------------------------------

// BenchmarkBaselineComparison runs both partitioners on L2, where the
// duplicate strategy strictly beats the hyperplane method.
func BenchmarkBaselineComparison(b *testing.B) {
	nest := loop.L2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := Hyperplane(nest)
		if err != nil {
			b.Fatal(err)
		}
		r, err := partition.Compute(nest, partition.Duplicate)
		if err != nil {
			b.Fatal(err)
		}
		if h.Found || r.Iter.NumBlocks() != 16 {
			b.Fatal("unexpected comparison outcome")
		}
	}
}

// --- Ablations (DESIGN.md §6) ------------------------------------------------

// BenchmarkEliminationInt64 vs BenchmarkEliminationBigRat: the same
// elimination work — invert a matrix and solve one system with it — on
// intlin's fraction-free checked-int64 core and on textbook Gauss–Jordan
// over math/big.Rat.
var elimWork = []struct {
	m [][]int64
	b []int64
}{
	{[][]int64{{1, 1, 0}, {-1, 0, 1}, {1, 0, 0}}, []int64{2, 1, 1}}, // L4's T
	{[][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}, []int64{1, 2, 3}},
	{[][]int64{{2, 0}, {0, 1}}, []int64{1, 1}}, // L2's H_B
}

func BenchmarkEliminationInt64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range elimWork {
			m := intlin.FromRows(w.m)
			if adj, det := m.Inverse(); adj == nil || det == 0 {
				b.Fatal("singular")
			}
			if _, _, ok := m.Solve(w.b); !ok {
				b.Fatal("inconsistent")
			}
		}
	}
}

func BenchmarkEliminationBigRat(b *testing.B) {
	b.ReportAllocs()
	// gaussJordan reduces the rows [m | extra] over the rationals.
	gaussJordan := func(m [][]int64, extra func(i, j int) int64, nextra int) [][]*big.Rat {
		n := len(m[0])
		a := make([][]*big.Rat, len(m))
		for i, row := range m {
			a[i] = make([]*big.Rat, n+nextra)
			for j := range a[i] {
				if j < n {
					a[i][j] = big.NewRat(row[j], 1)
				} else {
					a[i][j] = big.NewRat(extra(i, j-n), 1)
				}
			}
		}
		for c, r := 0, 0; c < n && r < len(a); c++ {
			p := r
			for p < len(a) && a[p][c].Sign() == 0 {
				p++
			}
			if p == len(a) {
				continue
			}
			a[p], a[r] = a[r], a[p]
			piv := new(big.Rat).Inv(a[r][c])
			for j := range a[r] {
				a[r][j].Mul(a[r][j], piv)
			}
			for i := range a {
				if f := new(big.Rat).Set(a[i][c]); i != r && f.Sign() != 0 {
					for j := range a[i] {
						a[i][j].Sub(a[i][j], new(big.Rat).Mul(f, a[r][j]))
					}
				}
			}
			r++
		}
		return a
	}
	for i := 0; i < b.N; i++ {
		for _, w := range elimWork {
			n := len(w.m)
			gaussJordan(w.m, func(i, j int) int64 {
				if i == j {
					return 1
				}
				return 0
			}, n)
			gaussJordan(w.m, func(i, _ int) int64 { return w.b[i] }, 1)
		}
	}
}

// BenchmarkDepSolveSNF vs BenchmarkDepSolveEnum: deciding integer
// solvability of H·t = r via Smith normal form against brute-force
// enumeration over the iteration-difference box.
func BenchmarkDepSolveSNF(b *testing.B) {
	h := intlin.FromRows([][]int64{{2, 0}, {0, 1}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := intlin.SolveDiophantine(h, []int64{2, 1}); !ok {
			b.Fatal("unsolvable")
		}
		if _, ok := intlin.SolveDiophantine(h, []int64{1, 1}); ok {
			b.Fatal("should be unsolvable")
		}
	}
}

func BenchmarkDepSolveEnum(b *testing.B) {
	h := [][]int64{{2, 0}, {0, 1}}
	solve := func(r []int64) bool {
		for t1 := int64(-3); t1 <= 3; t1++ {
			for t2 := int64(-3); t2 <= 3; t2++ {
				if h[0][0]*t1+h[0][1]*t2 == r[0] && h[1][0]*t1+h[1][1]*t2 == r[1] {
					return true
				}
			}
		}
		return false
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !solve([]int64{2, 1}) {
			b.Fatal("unsolvable")
		}
		if solve([]int64{1, 1}) {
			b.Fatal("should be unsolvable")
		}
	}
}

// BenchmarkBlockLookupLattice vs BenchmarkBlockLookupScan: block lookup by
// projected lattice key against a linear scan over blocks.
func BenchmarkBlockLookupLattice(b *testing.B) {
	res, err := partition.Compute(loop.L4(), partition.NonDuplicate)
	if err != nil {
		b.Fatal(err)
	}
	iters := loop.L4().Iterations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := iters[i%len(iters)]
		if res.Iter.BlockOf(it) == nil {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkBlockLookupScan(b *testing.B) {
	res, err := partition.Compute(loop.L4(), partition.NonDuplicate)
	if err != nil {
		b.Fatal(err)
	}
	iters := loop.L4().Iterations()
	find := func(it []int64) *partition.Block {
		key := fmt.Sprint(it)
		for _, blk := range res.Iter.Blocks {
			for _, pos := range blk.Pos {
				if fmt.Sprint(res.Iter.Index.Points[pos]) == key {
					return blk
				}
			}
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := iters[i%len(iters)]
		if find(it) == nil {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkStrategyAblation compares the three L5 allocation schemes'
// simulated times at M=64, p=16 — the duplicate-vs-selective-vs-sequential
// design choice.
func BenchmarkStrategyAblation(b *testing.B) {
	cost := machine.Transputer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq := machine.SequentialTime(64, cost)
		prime, err := machine.L5PrimeTime(64, 16, cost)
		if err != nil {
			b.Fatal(err)
		}
		double, err := machine.L5DoublePrimeTime(64, 16, cost)
		if err != nil {
			b.Fatal(err)
		}
		if !(double <= prime && prime < seq) {
			b.Fatalf("ordering violated: seq=%v prime=%v double=%v", seq, prime, double)
		}
	}
}

// BenchmarkKernelGallery runs all four strategies over the whole kernel
// gallery — the end-to-end partitioner throughput on realistic inputs.
func BenchmarkKernelGallery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels.All() {
			if _, err := k.Outcomes(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStrategySelector measures the cost-based strategy ranking on
// L5 (4 theorems + 6 selective subsets, each priced via its distribution
// plan).
func BenchmarkStrategySelector(b *testing.B) {
	nest := loop.L5(8)
	cost := machine.Transputer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		best, all, err := SelectStrategy(nest, 4, cost)
		if err != nil || len(all) != 10 || best.Blocks <= 1 {
			b.Fatalf("selector failed: %v %d", err, len(all))
		}
	}
}

// BenchmarkDistributionPlanning measures consumer-set grouping on L5.
func BenchmarkDistributionPlanning(b *testing.B) {
	res, err := partition.Compute(loop.L5(8), partition.Duplicate)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := distplan.BuildFor(res, assign.Place(res.Iter.Q, 4))
		if plan.Stats().Multicasts == 0 {
			b.Fatal("planning failed")
		}
	}
}

// BenchmarkLinkLevelTableI measures Table I regeneration through the
// store-and-forward link simulator instead of the analytic model.
func BenchmarkLinkLevelTableI(b *testing.B) {
	cost := machine.Transputer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range []int64{16, 32, 64, 128, 256} {
			if _, err := machine.L5PrimeLinkTime(m, 16, cost); err != nil {
				b.Fatal(err)
			}
			if _, err := machine.L5DoublePrimeLinkTime(m, 16, cost); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCodegen measures SPMD Go source generation for L4.
func BenchmarkCodegen(b *testing.B) {
	res, err := partition.Compute(loop.L4(), partition.NonDuplicate)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := transform.Transform(loop.L4(), res.Psi)
	if err != nil {
		b.Fatal(err)
	}
	asg := assign.Assign(tr, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(tr, asg, codegen.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSimulationL5 measures the end-to-end generic executor
// (partition → transform → assign → simulated run) on L5 at M=4, p=4.
func BenchmarkParallelSimulationL5(b *testing.B) {
	res, err := partition.Compute(loop.L5(4), partition.Duplicate)
	if err != nil {
		b.Fatal(err)
	}
	comp := &Compilation{}
	_ = comp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := CompileNest(loop.L5(4), Duplicate, 4)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.Execute(TransputerCost())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Machine.InterNodeMessages() != 0 {
			b.Fatal("communication detected")
		}
	}
	_ = res
}
