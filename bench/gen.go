package main

// All workload generation lives in this file: the plan tables, the
// seeded spelling of each program, the per-client op streams and the
// request digest. Everything random is a pure function of (seed,
// stream, indices) through a splitmix64-style mix, so one seed always
// yields one load and the code under test only ever sees the generated
// requests (source text, strategy, processors) — never a workload name
// or the seed.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// mix is the same avalanche construction internal/loadgen and
// internal/chaos use, duplicated so the benchmark's streams stay
// independent of theirs.
func mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// unit maps a hash draw to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Streams keep draw kinds independent of one another.
const (
	streamSpell = 1 + iota
	streamOrder
	streamPlan
	streamKind
	streamEntry
)

// The four workload names. Later changes cite them; they are final.
const (
	wlCompileCold  = "compile-cold"
	wlExecuteWarm  = "execute-warm"
	wlPlanChurn    = "plan-churn"
	wlFleetForward = "fleet-forward"
)

var workloadNames = []string{wlCompileCold, wlExecuteWarm, wlPlanChurn, wlFleetForward}

// The four program families (the paper's L5, L4, L1 and L3 at a
// parametric extent).
const (
	famMatmul    = "matmul"    // L5: C[i,j] += A[i,k]*B[k,j], extent³ iterations
	famStencil   = "stencil"   // L4: 3-D stencil, extent³ iterations
	famTwoStmt   = "twostmt"   // L1 shape: two statements, extent² iterations
	famRedundant = "redundant" // L3 shape: Section III.C redundant computations
)

// depth is the nest depth of a family; iterations = extent^depth.
func depth(family string) int {
	if family == famMatmul || family == famStencil {
		return 3
	}
	return 2
}

// planSpec is one (program, strategy, machine size) cell — the unit the
// service caches, stores and routes.
type planSpec struct {
	Family   string
	Extent   int
	Strategy string
	Procs    int
	// Source is this seed's spelling of the program. Spellings differ
	// only in what canonicalization erases (index names, layout,
	// comments), so every seed compiles the same canonical programs.
	Source string
}

// ID names the cell in expected.json, in per-program rows and in traces.
func (p planSpec) ID() string {
	return fmt.Sprintf("%s/%d/%s/p%d", p.Family, p.Extent, p.Strategy, p.Procs)
}

// Iterations is the size of the plan's iteration space.
func (p planSpec) Iterations() int {
	n := 1
	for i := 0; i < depth(p.Family); i++ {
		n *= p.Extent
	}
	return n
}

type opKind uint8

const (
	opExecute opKind = iota
	opCompile
)

func (k opKind) String() string {
	if k == opCompile {
		return "compile"
	}
	return "execute"
}

// op is one generated request: which plan, which endpoint and — on the
// fleet — which of the plan's non-home nodes receives it.
type op struct {
	Plan  int
	Kind  opKind
	Entry int
}

// workload is a fully generated load.
type workload struct {
	Name    string
	Seed    uint64
	Clients int
	Plans   []planSpec
	// order is compile-cold's pass order (a seeded shuffle of Plans).
	order []int
	// cdf is the cumulative plan-popularity distribution (Zipf or
	// uniform) the warm workloads draw from.
	cdf []float64
	// execFrac is the share of execute ops; the rest are compiles.
	execFrac float64
}

type cell struct {
	family   string
	extent   int
	strategy string
	procs    int
}

// coldCells is compile-cold's program list: six (family, strategy)
// pairs, each at an extent e and at 2e, covering all five strategies
// and 216 … 4096 iterations. The set is fixed so that runs with
// different seeds cost the same and can be compared; the seed picks the
// order and the spelling. One pass is about 2 s on the reference box.
var coldCells = []cell{
	{famMatmul, 8, "duplicate", 16}, {famMatmul, 16, "duplicate", 16},
	{famMatmul, 6, "auto", 16}, {famMatmul, 12, "auto", 16},
	{famStencil, 6, "non-duplicate", 16}, {famStencil, 12, "non-duplicate", 16},
	{famStencil, 6, "mars", 16}, {famStencil, 12, "mars", 16},
	{famTwoStmt, 16, "minimal-duplicate", 16}, {famTwoStmt, 32, "minimal-duplicate", 16},
	{famRedundant, 24, "mars", 16}, {famRedundant, 48, "mars", 16},
}

// warmCells is the 16-plan set of execute-warm and fleet-forward, in
// popularity order (rank 0 is the hottest): the four families at up to
// 16³, all five strategies, processors in {4, 8, 16}. Ranks are fixed —
// a seeded rank assignment would move the median op between a 6³ and a
// 16³ nest from one seed to the next.
var warmCells = []cell{
	{famMatmul, 8, "duplicate", 8},
	{famStencil, 8, "non-duplicate", 16},
	{famTwoStmt, 16, "minimal-duplicate", 4},
	{famRedundant, 16, "mars", 8},
	{famMatmul, 12, "auto", 16},
	{famStencil, 6, "mars", 4},
	{famTwoStmt, 8, "duplicate", 8},
	{famRedundant, 32, "minimal-duplicate", 16},
	{famMatmul, 16, "minimal-duplicate", 4},
	{famStencil, 12, "duplicate", 8},
	{famTwoStmt, 32, "auto", 16},
	{famRedundant, 8, "non-duplicate", 4},
	{famMatmul, 6, "mars", 8},
	{famStencil, 8, "auto", 16},
	{famTwoStmt, 24, "non-duplicate", 4},
	{famRedundant, 24, "auto", 8},
}

var (
	churnStrategies = []string{"non-duplicate", "duplicate", "minimal-duplicate", "mars", "auto"}
	churnProcs      = []int{4, 8, 16}
)

// churnCells is plan-churn's working set: 16 small programs (extents
// 6–12) × 4 (strategy, processors) variants = 64 plans, four times the
// 16-entry cache.
func churnCells() []cell {
	type prog struct {
		family string
		extent int
	}
	progs := []prog{
		{famMatmul, 6}, {famMatmul, 7}, {famMatmul, 8},
		{famStencil, 6}, {famStencil, 7}, {famStencil, 8},
		{famTwoStmt, 6}, {famTwoStmt, 8}, {famTwoStmt, 9}, {famTwoStmt, 10}, {famTwoStmt, 12},
		{famRedundant, 6}, {famRedundant, 8}, {famRedundant, 9}, {famRedundant, 10}, {famRedundant, 12},
	}
	var out []cell
	for i, p := range progs {
		for j := 0; j < 4; j++ {
			out = append(out, cell{p.family, p.extent,
				churnStrategies[(i+j)%len(churnStrategies)], churnProcs[(i+j)%len(churnProcs)]})
		}
	}
	return out
}

// indexPool is where spellings draw loop-index names from ("e" is left
// out: "2e" would read as an exponent to a human).
var indexPool = strings.Split("i j k m n p q r s t u v w x y z", " ")

// spell renders the family at the extent in a seeded surface form:
// index names, indentation, assignment token, blank lines and a
// comment differ; arrays, labels, subscripts and the expression do not,
// so lang.Canonical maps every spelling to one text.
func spell(family string, extent int, seed uint64, cellNo int) string {
	draw := func(i int) uint64 { return mix(seed, streamSpell, uint64(cellNo), uint64(i)) }
	d := depth(family)
	idx := make([]string, 0, d)
	for i := 0; len(idx) < d; i++ {
		name := indexPool[draw(i)%uint64(len(indexPool))]
		if draw(100+i)%3 == 0 {
			name += fmt.Sprint(1 + draw(200+i)%9)
		}
		dup := false
		for _, have := range idx {
			dup = dup || have == name
		}
		if !dup {
			idx = append(idx, name)
		}
	}
	indent := strings.Repeat(" ", 1+int(draw(300)%4))
	assign := []string{"=", ":=", " = ", " := "}[draw(301)%4]
	sep := []string{",", ", "}[draw(302)%2]

	var body []string
	switch family {
	case famMatmul:
		i, j, k := idx[0], idx[1], idx[2]
		body = []string{fmt.Sprintf("C[%s%s%s]%sC[%s%s%s] + A[%s%s%s] * B[%s%s%s]",
			i, sep, j, assign, i, sep, j, i, sep, k, k, sep, j)}
	case famStencil:
		i, j, k := idx[0], idx[1], idx[2]
		body = []string{fmt.Sprintf("A[%s%s%s%s%s]%sA[%s-1%s%s+1%s%s-1] + B[%s%s%s%s%s]",
			i, sep, j, sep, k, assign, i, sep, j, sep, k, i, sep, j, sep, k)}
	case famTwoStmt:
		i, j := idx[0], idx[1]
		body = []string{
			fmt.Sprintf("S1: A[2%s%s%s]%sC[%s%s%s] * 7", i, sep, j, assign, i, sep, j),
			fmt.Sprintf("S2: B[%s%s%s+1]%sA[2%s-2%s%s-1] + C[%s-1%s%s-1]", j, sep, i, assign, i, sep, j, i, sep, j),
		}
	case famRedundant:
		i, j := idx[0], idx[1]
		body = []string{
			fmt.Sprintf("S1: A[%s%s%s]%sA[%s-1%s%s-1] * 3", i, sep, j, assign, i, sep, j),
			fmt.Sprintf("S2: A[%s%s%s-1]%sA[%s+1%s%s-2] / 7", i, sep, j, assign, i, sep, j),
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# nest %04x\n", draw(303)&0xffff)
	for l := 0; l < d; l++ {
		fmt.Fprintf(&b, "%sfor %s = 1 to %d\n", strings.Repeat(indent, l), idx[l], extent)
	}
	for _, s := range body {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat(indent, d), s)
	}
	for l := d - 1; l >= 0; l-- {
		fmt.Fprintf(&b, "%send\n", strings.Repeat(indent, l))
	}
	return b.String()
}

// generate builds the named workload for the seed.
func generate(name string, seed uint64) (*workload, error) {
	w := &workload{Name: name, Seed: seed, Clients: 2, execFrac: 1}
	var cells []cell
	zipf := 0.0
	switch name {
	case wlCompileCold:
		cells, w.Clients = coldCells, 1
	case wlExecuteWarm, wlFleetForward:
		cells, zipf = warmCells, 1.1
	case wlPlanChurn:
		cells, w.execFrac = churnCells(), 0.8
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	for i, c := range cells {
		w.Plans = append(w.Plans, planSpec{c.family, c.extent, c.strategy, c.procs, spell(c.family, c.extent, seed, i)})
	}
	// Fisher–Yates over the plan indices.
	w.order = make([]int, len(cells))
	for i := range w.order {
		w.order[i] = i
	}
	for i := len(w.order) - 1; i > 0; i-- {
		j := int(mix(seed, streamOrder, uint64(i)) % uint64(i+1))
		w.order[i], w.order[j] = w.order[j], w.order[i]
	}
	// Popularity: weight 1/(rank+1)^s, which is uniform at s = 0.
	w.cdf = make([]float64, len(cells))
	total := 0.0
	for r := range w.cdf {
		total += 1 / math.Pow(float64(r+1), zipf)
		w.cdf[r] = total
	}
	for r := range w.cdf {
		w.cdf[r] /= total
	}
	return w, nil
}

// Op returns client c's k-th request. compile-cold walks its shuffled
// list; the warm workloads draw plan, endpoint and entry node.
func (w *workload) Op(c, k int) op {
	if w.Name == wlCompileCold {
		return op{Plan: w.order[k%len(w.order)], Kind: opCompile}
	}
	cu, ku := uint64(c), uint64(k)
	plan := sort.SearchFloat64s(w.cdf, unit(mix(w.Seed, streamPlan, cu, ku)))
	if plan >= len(w.Plans) {
		plan = len(w.Plans) - 1
	}
	o := op{Plan: plan, Entry: int(mix(w.Seed, streamEntry, cu, ku) % 2)}
	if unit(mix(w.Seed, streamKind, cu, ku)) >= w.execFrac {
		o.Kind = opCompile
	}
	return o
}

// digestOps is how many ops of every client stream the digest covers.
// The closed loop decides how far into its stream a client gets, so the
// digest is over a fixed prefix no run falls short of mattering for.
const digestOps = 4096

// Digest fingerprints the load: every plan as it will be sent, then a
// prefix of every client's op stream. Equal digests mean equal loads.
func (w *workload) Digest() string {
	h := fnv.New64a()
	for _, p := range w.Plans {
		fmt.Fprintf(h, "%s|%d|%s\x00", p.Strategy, p.Procs, p.Source)
	}
	for c := 0; c < w.Clients; c++ {
		for k := 0; k < digestOps; k++ {
			o := w.Op(c, k)
			fmt.Fprintf(h, "%d.%d.%d;", o.Plan, o.Kind, o.Entry)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
