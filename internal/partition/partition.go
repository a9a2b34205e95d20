// Package partition implements the paper's core contribution: the four
// communication-free array-partitioning strategies.
//
//   - Theorem 1 (NonDuplicate): Ψ = span(∪ Ψ_A) over the reference spaces
//     of Definition 4.
//   - Theorem 2 (Duplicate): Ψʳ = span(∪ Ψ_Aʳ) over reduced reference
//     spaces — only flow dependences constrain the partition; fully
//     duplicable arrays (no flow dependence, Definition 5) contribute
//     nothing.
//   - Theorems 3 and 4 (Minimal variants): the same constructions after
//     redundant-computation elimination, using only useful dependences.
//
// Partitioning the iteration space by a space Ψ (Definition 2) groups
// iterations whose difference lies in Ψ; the block key is the projection
// onto an integer basis of the orthogonal complement. Data partitions
// (Definition 3) collect every element referenced by a block's iterations.
package partition

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"commfree/internal/deps"
	"commfree/internal/intlin"
	"commfree/internal/loop"
	"commfree/internal/obs"
	"commfree/internal/redundant"
	"commfree/internal/space"
)

// Strategy selects one of the paper's four partitioning schemes.
type Strategy int

const (
	// NonDuplicate is Theorem 1: one copy of every array element.
	NonDuplicate Strategy = iota
	// Duplicate is Theorem 2: elements may be replicated across blocks.
	Duplicate
	// MinimalNonDuplicate is Theorem 3: non-duplicate after eliminating
	// redundant computations (minimal partitioning space).
	MinimalNonDuplicate
	// MinimalDuplicate is Theorem 4: duplicate-data after eliminating
	// redundant computations.
	MinimalDuplicate
	// Selective duplicates only a chosen subset of the arrays (Section
	// IV's L5′ duplicates array B but not A). Use ComputeSelective.
	Selective
	// Mars is the usage-based partitioning after Ferry et al. (Maximal
	// Atomic irRedundant Sets): blocks are the finest grouping of
	// iteration points closed under the flow of non-redundant values
	// (FlowGroups). MARS partitions
	// are computed by package mars (mars.Compute), which emits them
	// through this package's Result shape with Ψ = the zero space and
	// explicitly grouped blocks (PartitionIterationsGrouped).
	Mars
)

// NumStrategies is the number of Strategy values. The compile-time
// guard in strategy_guard_test.go fails when a new value is added
// without growing this constant (and the switches below).
const NumStrategies = 6

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case NonDuplicate:
		return "non-duplicate"
	case Duplicate:
		return "duplicate"
	case MinimalNonDuplicate:
		return "minimal non-duplicate"
	case MinimalDuplicate:
		return "minimal duplicate"
	case Selective:
		return "selective duplicate"
	case Mars:
		return "mars"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// wireNames spell the strategies in requests, plan records and on the
// command line. "selective" names records only: a request reaches a
// selective subset through "auto", which names no strategy.
var wireNames = [NumStrategies]string{
	NonDuplicate:        "non-duplicate",
	Duplicate:           "duplicate",
	MinimalNonDuplicate: "minimal-non-duplicate",
	MinimalDuplicate:    "minimal-duplicate",
	Selective:           "selective",
	Mars:                "mars",
}

// WireName names the strategy in requests and plan records.
func (s Strategy) WireName() string { return wireNames[s] }

// Named returns the strategy a wire name spells.
func Named(name string) (Strategy, bool) {
	for s, n := range wireNames {
		if n == name {
			return Strategy(s), true
		}
	}
	return 0, false
}

// Minimal reports whether the strategy requires redundant-computation
// elimination first. Every Strategy value is classified explicitly —
// Mars builds on the eliminated (irredundant) program, so it counts as
// minimal; its Result always carries a non-nil Redundant.
func (s Strategy) Minimal() bool {
	switch s {
	case MinimalNonDuplicate, MinimalDuplicate, Mars:
		return true
	case NonDuplicate, Duplicate, Selective:
		return false
	}
	return false
}

// kernelSpace returns Ker(H_A) over Q.
func kernelSpace(nest *loop.Nest, array string) *space.Space {
	h := nest.ReferenceMatrix(array)
	n := nest.Depth()
	if h == nil {
		return space.Zero(n)
	}
	return space.Span(n, intlin.FromRows(h).NullSpace()...)
}

// ReferenceSpace computes Ψ_A of Definition 4: the span of Ker(H_A)
// together with one particular solution of H_A·t̄ = r̄ for every
// data-referenced vector r̄ that admits an integer iteration-difference
// solution (conditions (1) and (2)).
func ReferenceSpace(a *deps.Analysis, array string) *space.Space {
	n := a.Nest.Depth()
	sp := kernelSpace(a.Nest, array)
	for _, rel := range a.PairRelations(array) {
		if rel.RationalSolvable && rel.IntegerRealizable {
			sp = sp.Union(space.Span(n, rel.Particular))
		}
	}
	return sp
}

// ReducedReferenceSpace computes Ψ_Aʳ of Section III.B: span(∅) for fully
// duplicable arrays; Ker(H_A) plus the particular solutions of the flow
// dependences for partially duplicable arrays.
func ReducedReferenceSpace(a *deps.Analysis, array string) *space.Space {
	n := a.Nest.Depth()
	if a.FullyDuplicable(array) {
		return space.Zero(n)
	}
	sp := kernelSpace(a.Nest, array)
	for _, d := range a.Dependences(array) {
		if d.Kind != deps.Flow {
			continue
		}
		sp = sp.Union(depSolutionSpace(n, d))
	}
	return sp
}

// depSolutionSpace spans every dependence-distance direction of d: the
// particular solution plus the solution kernel (trivial when H is
// nonsingular, the paper's Section III.C assumption).
func depSolutionSpace(n int, d *deps.Dependence) *space.Space {
	return space.Span(n, append([][]int64{d.Solution.Particular}, d.Solution.KernelBasis...)...)
}

// MinimalReferenceSpace computes Ψ_A^min of Section III.C: the span of the
// distance directions of the *useful* data dependences of the array.
//
// Section III.C assumes every H_A is nonsingular, under which the kernel
// is trivial. This implementation handles singular H_A too, and then
// Ker(H_A) must be included: two iterations can touch the same element
// through one reference (kernel reuse) without any recorded dependence —
// e.g. a read-only array — yet the single-copy requirement of the
// non-duplicate strategy still forces them into one block.
func MinimalReferenceSpace(r *redundant.Result, array string) *space.Space {
	sp := kernelSpace(r.Nest, array)
	n := r.Nest.Depth()
	for _, d := range r.UsefulDepsOf(array) {
		sp = sp.Union(depSolutionSpace(n, d))
	}
	return sp
}

// MinimalReducedReferenceSpace computes Ψ_A^minʳ of Section III.C: the
// span of the distance directions of the useful *flow* dependences only.
func MinimalReducedReferenceSpace(r *redundant.Result, array string) *space.Space {
	n := r.Nest.Depth()
	sp := space.Zero(n)
	for _, d := range r.UsefulDepsOf(array) {
		if d.Kind != deps.Flow {
			continue
		}
		sp = sp.Union(depSolutionSpace(n, d))
	}
	return sp
}

// Block is one iteration block B_j of the iteration partition
// (Definition 2).
type Block struct {
	ID   int     // 1-based, in lexicographic order of Q·ī
	Base []int64 // base point b̄_j: the block's lexicographic minimum
	// Pos are the block's iterations as ascending positions in the
	// partition's Index: iteration t of the block is Index.Points[Pos[t]].
	Pos []int32
}

// Size returns the number of iterations in the block.
func (b *Block) Size() int { return len(b.Pos) }

// IterationPartition is P_Ψ(Iⁿ): the iteration space split into blocks.
type IterationPartition struct {
	Nest   *loop.Nest
	Psi    *space.Space
	Q      [][]int64 // primitive integer basis of the orthogonal complement
	Blocks []*Block
	// Index is the nest's dense index; Blocks[blockOf[pos]] holds
	// iteration Index.Points[pos].
	Index   *loop.Index
	blockOf []int32
}

// PartitionIterations applies P_Ψ(Iⁿ) to the indexed iteration space:
// iterations are grouped by Q·ī, packed into one integer by the rank of
// the keys' bounding box (a *loop.RankOverflowError when the box is too
// large to rank).
func PartitionIterations(ix *loop.Index, psi *space.Space) (*IterationPartition, error) {
	q := psi.OrthogonalComplementIntegerBasis()
	lo, hi := make([]int64, len(q)), make([]int64, len(q))
	for pos, it := range ix.Points {
		for r, row := range q {
			v := dot(row, it)
			if pos == 0 {
				lo[r], hi[r] = v, v
			}
			lo[r], hi[r] = min(lo[r], v), max(hi[r], v)
		}
	}
	box, err := loop.NewRanker("block key box", lo, hi)
	if err != nil {
		return nil, err
	}
	label := make([]int64, len(ix.Points))
	for pos, it := range ix.Points {
		for r, row := range q {
			label[pos] += (dot(row, it) - lo[r]) * box.Radix[r]
		}
	}
	return assemble(ix, psi, q, label, box.Volume), nil
}

// dot is row·it: one coordinate of Q·ī.
func dot(row, it []int64) int64 {
	var v int64
	for c, x := range row {
		v += x * it[c]
	}
	return v
}

// PartitionIterationsGrouped builds an IterationPartition from explicit
// iteration groups instead of the coset structure of Ψ. It exists for
// usage-based partitions (package mars) whose blocks are value-flow
// closures, not affine cosets; the caller passes psi = the zero space.
//
// base[pos] names the group of iteration pos by the position of the
// group's lexicographically first iteration, so block IDs follow the
// lexicographic order of the blocks' base points.
func PartitionIterationsGrouped(ix *loop.Index, psi *space.Space, base []int32) *IterationPartition {
	label := make([]int64, len(base))
	for pos, b := range base {
		label[pos] = int64(b)
	}
	return assemble(ix, psi, psi.OrthogonalComplementIntegerBasis(), label, int64(len(base)))
}

// FlowGroups labels every iteration (by position in the redundancy
// oracle's Index) with the first iteration of its group in the finest
// partition closed under value flow — the blocks of the Mars strategy.
// The accesses are replayed in execution order with redundant
// computations skipped: every read joins the group of the iteration
// whose write to that element is current. Iterations no flow reaches
// stay alone, so the groups cover the iteration space.
func FlowGroups(red *redundant.Result) []int32 {
	ix := red.Index
	// Union-find over iteration positions; the smaller position is
	// always the root, so a group's label is its base point.
	parent := make([]int32, len(ix.Points))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	writer := make([]int32, ix.NumElems()) // −1: the element still holds initial data
	for e := range writer {
		writer[e] = -1
	}
	for pos := range ix.Points {
		row := ix.Row(pos)
		for s := range ix.Nest.Body {
			if red.RedundantAt(s, pos) {
				continue
			}
			w := ix.First[s+1] - 1
			for _, e := range row[ix.First[s]:w] {
				if writer[e] < 0 {
					continue
				}
				if rx, ry := find(writer[e]), find(int32(pos)); rx < ry {
					parent[ry] = rx
				} else {
					parent[rx] = ry
				}
			}
			writer[row[w]] = int32(pos)
		}
	}
	for i := range parent {
		parent[i] = find(int32(i))
	}
	return parent
}

// assemble materializes the blocks of a labelling of the iterations,
// every label in [0, volume): one block per distinct label, numbered by
// ascending label — for packed keys, the lexicographic order of Q·ī.
// The positions are grouped by counting (byLabel), so a block's
// positions come out ascending, its base point first.
func assemble(ix *loop.Index, psi *space.Space, q [][]int64, label []int64, volume int64) *IterationPartition {
	order := byLabel(label, volume)
	first := func(i int) bool { return i == 0 || label[order[i]] != label[order[i-1]] }
	blocks := 0
	for i := range order {
		if first(i) {
			blocks++
		}
	}
	p := &IterationPartition{Nest: ix.Nest, Psi: psi, Q: q, Index: ix,
		blockOf: make([]int32, len(label)), Blocks: make([]*Block, blocks)}
	store := make([]Block, blocks)
	b := -1
	for i, pos := range order {
		if first(i) {
			b++
			store[b] = Block{ID: b + 1, Base: ix.Points[pos], Pos: order[i:i]}
			p.Blocks[b] = &store[b]
		}
		store[b].Pos = store[b].Pos[:len(store[b].Pos)+1]
		p.blockOf[pos] = int32(b)
	}
	for i := range store {
		store[i].Pos = slices.Clip(store[i].Pos)
	}
	return p
}

// byLabel returns the positions 0…len(label)−1 stably ordered by label,
// every label in [0, volume): a least-significant-digit radix sort whose
// digit spans up to 8·len(label) buckets, so a label box of that many
// ranks — the block keys of every nest the benchmark compiles — takes one
// counting pass, and a wider box one more pass per digit.
func byLabel(label []int64, volume int64) []int32 {
	width := bits.Len64(uint64(max(volume, 1) - 1))
	digit, passes := min(width, max(8, bits.Len(uint(len(label)))+2)), 1
	if width > 0 {
		passes = (width + digit - 1) / digit
		digit = (width + passes - 1) / passes
	}
	mask := int64(1)<<digit - 1
	count := make([]int32, 1<<digit)
	var order, next []int32 // order is nil in the first pass: the identity
	for pass := range passes {
		shift := pass * digit
		clear(count)
		for _, l := range label {
			count[l>>shift&mask]++
		}
		var at int32
		for d, c := range count {
			count[d], at = at, at+c
		}
		if next == nil {
			next = make([]int32, len(label))
		}
		for i := range label {
			pos := int32(i)
			if order != nil {
				pos = order[i]
			}
			d := label[pos] >> shift & mask
			next[count[d]] = pos
			count[d]++
		}
		order, next = next, order
	}
	return order
}

// Forall is the forall space of the nest transformed for this partition
// (Section IV), read off the blocks instead of walked: the nonempty
// forall points in lexicographic order with their iteration counts,
// which is what Transformed.Visit enumerates. A coset block is one
// forall point, Q·b̄ of its base point, and the blocks are numbered in
// the lexicographic order of Q·ī. Under Ψ = 0 — a grouped partition's
// Ψ too — Q is the identity: every iteration is its own forall point,
// in the Index's lexicographic order. The points share one backing
// array.
func (p *IterationPartition) Forall() (points [][]int64, sizes []int64) {
	var bases [][]int64
	if p.Psi.IsZero() {
		bases, sizes = p.Index.Points, make([]int64, len(p.Index.Points))
		for i := range sizes {
			sizes[i] = 1
		}
	} else {
		bases, sizes = make([][]int64, len(p.Blocks)), make([]int64, len(p.Blocks))
		for i, b := range p.Blocks {
			bases[i], sizes[i] = b.Base, int64(b.Size())
		}
	}
	k := len(p.Q)
	flat := make([]int64, len(bases)*k)
	points = make([][]int64, len(bases))
	for i, base := range bases {
		pt := flat[i*k : (i+1)*k : (i+1)*k]
		for r, row := range p.Q {
			pt[r] = dot(row, base)
		}
		points[i] = pt
	}
	return points, sizes
}

// ForallBlock is the index in Blocks of the block holding forall point
// i of Forall: i, or under Ψ = 0 the block of iteration i.
func (p *IterationPartition) ForallBlock(i int) int {
	if p.Psi.IsZero() {
		return int(p.blockOf[i])
	}
	return i
}

// BlockOf returns the block containing the iteration (nil if the
// iteration is outside the iteration space).
func (p *IterationPartition) BlockOf(it []int64) *Block {
	pos := p.Index.Pos(it)
	if pos < 0 {
		return nil
	}
	return p.Blocks[p.blockOf[pos]]
}

// NumBlocks returns the number of iteration blocks q.
func (p *IterationPartition) NumBlocks() int { return len(p.Blocks) }

// MaxBlockSize returns the largest block cardinality (the parallel
// execution time in iterations when blocks map 1:1 to processors).
func (p *IterationPartition) MaxBlockSize() int {
	max := 0
	for _, b := range p.Blocks {
		if b.Size() > max {
			max = b.Size()
		}
	}
	return max
}

// DataBlock is B_j^A: the elements of one array referenced by block j.
type DataBlock struct {
	BlockID  int
	Elements [][]int64 // sorted lexicographically, unique
}

// DataPartition is P_Ψ(A) (Definition 3).
type DataPartition struct {
	Array  string
	Blocks []*DataBlock
	// Duplicated reports whether some element appears in more than one
	// block (possible only under the duplicate-data strategies).
	Duplicated bool
	// CopyFactor is (Σ block sizes) / Unique, the number of distinct
	// elements; 1.0 means no duplication.
	CopyFactor float64
	Unique     int
}

// copyFactor is copies per distinct element (0 for an untouched array).
func copyFactor(copies, uniq int) float64 {
	if uniq == 0 {
		return 0
	}
	return float64(copies) / float64(uniq)
}

// footprints is the one walk over the blocks' data: every block's
// non-redundant accesses (all of them when red is nil), each distinct
// (block, element) pair seen once. Per array — indexed like Index.Arrays
// — it counts those pairs (copies) and the distinct elements among them
// (uniq); for the one array ranksOf (−1 for none) it also collects each
// block's element ranks, ascending. Definition 3's data partitions are
// readings of this walk, not stored beside the iteration partition.
func footprints(p *IterationPartition, red *redundant.Result, ranksOf int) (copies, uniq []int, ranks [][]int64) {
	ix := p.Index
	copies, uniq = make([]int, len(ix.Arrays)), make([]int, len(ix.Arrays))
	if ranksOf >= 0 {
		ranks = make([][]int64, len(p.Blocks))
	}
	stamp := make([]int32, ix.NumElems()) // last block (1-based) that counted the element
	for bi, b := range p.Blocks {
		var rs []int64
		for _, pos := range b.Pos {
			row := ix.Row(int(pos))
			for st := range ix.Nest.Body {
				if red != nil && red.RedundantAt(st, int(pos)) {
					continue
				}
				for s := ix.First[st]; s < ix.First[st+1]; s++ {
					e, a := row[s], ix.Slots[s].Array
					if stamp[e] == int32(bi+1) {
						continue
					}
					if stamp[e] == 0 {
						uniq[a]++
					}
					stamp[e] = int32(bi + 1)
					copies[a]++
					if a == ranksOf {
						rs = append(rs, ix.ElemRank(e))
					}
				}
			}
		}
		if ranksOf >= 0 {
			slices.Sort(rs)
			ranks[bi] = rs
		}
	}
	return copies, uniq, ranks
}

// Result is the complete partitioning of one nest under one strategy.
// Strategy, Redundant, Psi and Iter are the partition proper — a
// function of (nest, strategy, Ψ) alone, see Materialize — and all that
// Verify, the executors and the data partitions read. Analysis and
// PerArray describe how Ψ was derived; a Context fills them in, a plan
// revived from its record leaves them nil.
type Result struct {
	Strategy  Strategy
	Analysis  *deps.Analysis
	Redundant *redundant.Result // non-nil for minimal strategies
	PerArray  map[string]*space.Space
	Psi       *space.Space
	Iter      *IterationPartition
}

// DataPartition derives P_Ψ(A) (Definition 3) for one array: the
// elements each iteration block references, restricted to non-redundant
// computations under the minimal strategies. It is computed on every
// call, from Iter and Redundant alone; nil for an array the nest does
// not reference.
func (r *Result) DataPartition(array string) *DataPartition {
	ix := r.Iter.Index
	ai := slices.Index(ix.Arrays, array)
	if ai < 0 {
		return nil
	}
	copies, uniq, ranks := footprints(r.Iter, r.Redundant, ai)
	box := ix.Elems[ai]
	dp := &DataPartition{Array: array, Blocks: make([]*DataBlock, len(ranks)),
		Duplicated: copies[ai] > uniq[ai], CopyFactor: copyFactor(copies[ai], uniq[ai]), Unique: uniq[ai]}
	for bi, rs := range ranks {
		db := &DataBlock{BlockID: r.Iter.Blocks[bi].ID, Elements: make([][]int64, len(rs))}
		flat := make([]int64, len(rs)*len(box.Lo))
		for i, rk := range rs {
			db.Elements[i], flat = box.Unrank(rk, flat[:len(box.Lo):len(box.Lo)]), flat[len(box.Lo):]
		}
		dp.Blocks[bi] = db
	}
	return dp
}

// Materialize builds the partition of an indexed nest from its strategy
// and Ψ alone (Definitions 2–4: two iterations share a block iff their
// difference lies in Ψ; Mars blocks are the flow closure and Ψ is the
// zero space). It is the one place blocks come from: a compile reaches it
// through Context.Partition with the Ψ it derived, a revival with the Ψ
// its record carries. red is the nest's redundancy oracle when the caller
// holds one; with nil the minimal strategies sweep the index for it.
func Materialize(ix *loop.Index, strat Strategy, psi *space.Space, red *redundant.Result) (*Result, error) {
	res := &Result{Strategy: strat, Psi: psi}
	if strat.Minimal() {
		if red == nil {
			red = redundant.Sweep(ix)
		}
		res.Redundant = red
	}
	if strat == Mars {
		res.Iter = PartitionIterationsGrouped(ix, psi, FlowGroups(red))
		return res, nil
	}
	var err error
	res.Iter, err = PartitionIterations(ix, psi)
	return res, err
}

// Context is the evaluation context of one nest: what every strategy's
// partition shares — the dependence analysis, the dense index and, from
// its first use on, the redundancy oracle — is computed once here, and
// each Compute adds only its own Ψ. A compile builds one Context. Once
// Redundant has run, Spaces, Compute and Partition only read it and may
// be called concurrently; before, it is not safe for concurrent use. The
// "deps" and "redundant" stages are recorded as spans of Trace under
// Parent (a nil Trace costs nothing).
type Context struct {
	Analysis *deps.Analysis
	Index    *loop.Index
	Trace    *obs.Trace
	Parent   obs.SpanID

	red *redundant.Result
}

// NewContext analyzes and indexes a validated nest.
func NewContext(nest *loop.Nest, tr *obs.Trace, parent obs.SpanID) (*Context, error) {
	sp := tr.Start(parent, "deps")
	a, err := deps.Analyze(nest)
	sp.End()
	if err != nil {
		return nil, err
	}
	ix, err := loop.NewIndex(nest)
	if err != nil {
		return nil, err
	}
	return &Context{Analysis: a, Index: ix, Trace: tr, Parent: parent}, nil
}

// Redundant returns the nest's redundancy oracle, eliminating on first
// use.
func (c *Context) Redundant() *redundant.Result {
	if c.red == nil {
		sp := c.Trace.Start(c.Parent, "redundant")
		c.red = redundant.EliminateOn(c.Analysis, c.Index)
		sp.SetInt("eliminated", int64(c.red.NumRedundant()))
		sp.End()
	}
	return c.red
}

// Spaces derives a strategy's per-array reference spaces and their span
// Ψ (all zero spaces under Mars). duplicated names the arrays Selective
// replicates; the other strategies ignore it.
func (c *Context) Spaces(strat Strategy, duplicated map[string]bool) (map[string]*space.Space, *space.Space, error) {
	a := c.Analysis
	perArray := map[string]*space.Space{}
	psi := space.Zero(a.Nest.Depth())
	for _, array := range c.Index.Arrays {
		var sp *space.Space
		switch {
		case strat == NonDuplicate, strat == Selective && !duplicated[array]:
			sp = ReferenceSpace(a, array)
		case strat == Duplicate, strat == Selective:
			sp = ReducedReferenceSpace(a, array)
		case strat == MinimalNonDuplicate:
			sp = MinimalReferenceSpace(c.Redundant(), array)
		case strat == MinimalDuplicate:
			sp = MinimalReducedReferenceSpace(c.Redundant(), array)
		case strat == Mars: // blocks are flow groups, no space constrains them
			sp = space.Zero(a.Nest.Depth())
		default:
			return nil, nil, fmt.Errorf("partition: unknown strategy %d", int(strat))
		}
		perArray[array] = sp
		psi = psi.Union(sp)
	}
	return perArray, psi, nil
}

// Compute partitions the nest under one strategy (duplicated names the
// arrays Selective replicates).
func (c *Context) Compute(strat Strategy, duplicated map[string]bool, parent obs.SpanID) (*Result, error) {
	if strat == Selective && duplicated == nil {
		return nil, fmt.Errorf("partition: selective partitions need per-array choices — use ComputeSelective")
	}
	perArray, psi, err := c.Spaces(strat, duplicated)
	if err != nil {
		return nil, err
	}
	return c.Partition(strat, perArray, psi, parent)
}

// Partition materializes a strategy's partition from its spaces (see
// Spaces); the "partition" stage is recorded as a span under parent.
func (c *Context) Partition(strat Strategy, perArray map[string]*space.Space, psi *space.Space, parent obs.SpanID) (*Result, error) {
	var red *redundant.Result
	if strat.Minimal() {
		red = c.Redundant()
	}
	sp := c.Trace.Start(parent, "partition")
	defer sp.End()
	res, err := Materialize(c.Index, strat, psi, red)
	if err != nil {
		return nil, err
	}
	res.Analysis, res.PerArray = c.Analysis, perArray
	sp.SetInt("blocks", int64(res.Iter.NumBlocks()))
	return res, nil
}

// Compute runs the full partitioning pipeline on a validated nest.
func Compute(nest *loop.Nest, strat Strategy) (*Result, error) {
	c, err := NewContext(nest, nil, 0)
	if err != nil {
		return nil, err
	}
	return c.Compute(strat, nil, 0)
}

// ParallelismDim returns n − dim(Ψ): the dimensionality of the forall
// space (0 means sequential execution).
func (r *Result) ParallelismDim() int {
	return r.Iter.Nest.Depth() - r.Psi.Dim()
}

// RedundantCopyVolume counts the data-block element copies that exist
// only to feed redundant computations: (block, element) pairs where no
// non-redundant access by the block's iterations touches the element.
// The minimal strategies and MARS derive their data partitions with the
// redundancy oracle applied, so their volume is 0 by construction; the
// non-minimal strategies (including Selective) allocate for every
// access and pay for copies whose consumers are all overwritten later.
// The caller supplies the redundancy oracle for the nest (from
// redundant.Eliminate) so results built without one are measurable. The
// useful pairs are a subset of the allocated ones, so the volume is the
// difference of the two counts.
func (r *Result) RedundantCopyVolume(red *redundant.Result) int {
	allocated, _, _ := footprints(r.Iter, r.Redundant, -1)
	useful, _, _ := footprints(r.Iter, red, -1)
	volume := 0
	for a := range allocated {
		volume += allocated[a] - useful[a]
	}
	return volume
}

// ComputeSelective partitions with per-array duplication choices: arrays
// in duplicated use the reduced reference space, the rest the full
// reference space. Section IV's L5′ (duplicate only B) is the motivating
// case: Ψ′ = span({(0,1,0)} ∪ {(0,0,1)}) keeps array A distributed by
// rows while B is replicated everywhere.
func ComputeSelective(nest *loop.Nest, duplicated map[string]bool) (*Result, error) {
	c, err := NewContext(nest, nil, 0)
	if err != nil {
		return nil, err
	}
	if duplicated == nil {
		duplicated = map[string]bool{}
	}
	return c.Compute(Selective, duplicated, 0)
}

// AllowsDuplication reports whether the strategy may replicate data.
// Every Strategy value is classified explicitly. Mars allows it: its
// blocks group iterations by value flow, so distinct blocks may read
// (and, across overwrite generations, write) copies of one element —
// the executors must therefore use private per-block copies with
// last-writer commit, exactly like the duplicate theorems.
func (r *Result) AllowsDuplication() bool {
	switch r.Strategy {
	case Duplicate, MinimalDuplicate, Selective, Mars:
		return true
	case NonDuplicate, MinimalNonDuplicate:
		return false
	}
	return false
}

// Verify exhaustively checks communication-freeness of the result on the
// finite iteration space and returns a descriptive error on violation.
func (r *Result) Verify() error {
	return VerifyCommunicationFree(r.Iter, r.AllowsDuplication(), r.Redundant)
}

// VerifyCommunicationFree checks the partition against the nest's exact
// execution trace.
//
// Under the non-duplicate strategies (dupOK = false), every element must
// be touched by exactly one block. Under the duplicate strategies
// (dupOK = true), every read must see its most recent writer (if any) in
// its own block — the flow-dependence condition of Theorem 2. When red is
// non-nil, redundant computations are excluded from the trace (Theorems 3
// and 4 guarantee communication-freeness only for the pruned program).
//
// The accesses are replayed once in execution order against one word of
// state per element: the first access (dupOK = false) or the latest
// write (dupOK = true), as 1 + position·slots + slot.
func VerifyCommunicationFree(p *IterationPartition, dupOK bool, red *redundant.Result) error {
	ix := p.Index
	if len(p.blockOf) != len(ix.Points) {
		return fmt.Errorf("partition: blocks cover %d of %d iterations", len(p.blockOf), len(ix.Points))
	}
	width := len(ix.Slots)
	prev := make([]int64, ix.NumElems())
	for pos := range ix.Points {
		blk := p.blockOf[pos]
		row := ix.Row(pos)
		for s, e := range row {
			slot := ix.Slots[s]
			if red != nil && red.RedundantAt(slot.Stmt, pos) {
				continue
			}
			if was := prev[e] - 1; was >= 0 && p.blockOf[was/int64(width)] != blk && !(dupOK && slot.Write) {
				array, idx := ix.Elem(e)
				from, wslot := p.Blocks[p.blockOf[was/int64(width)]], ix.Slots[was%int64(width)]
				if !dupOK {
					return fmt.Errorf("partition: element %s|%v accessed by blocks %d and %d (non-duplicate strategy)",
						array, idx, from.ID, p.Blocks[blk].ID)
				}
				return fmt.Errorf("partition: flow dependence on %s|%v crosses blocks %d → %d (write S%d%v, read S%d%v)",
					array, idx, from.ID, p.Blocks[blk].ID,
					wslot.Stmt+1, ix.Points[was/int64(width)], slot.Stmt+1, ix.Points[pos])
			}
			if slot.Write || (!dupOK && prev[e] == 0) {
				prev[e] = 1 + int64(pos*width+s)
			}
		}
	}
	return nil
}

// Summary renders a report of the partitioning result.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", r.Strategy)
	arrays := r.Iter.Index.Arrays
	for _, a := range arrays {
		fmt.Fprintf(&b, "  Ψ_%s = %s\n", a, r.PerArray[a])
	}
	fmt.Fprintf(&b, "partitioning space Ψ = %s (dim %d)\n", r.Psi, r.Psi.Dim())
	fmt.Fprintf(&b, "parallelism: %d-dimensional forall space, %d blocks (max block %d iterations)\n",
		r.ParallelismDim(), r.Iter.NumBlocks(), r.Iter.MaxBlockSize())
	copies, uniq, _ := footprints(r.Iter, r.Redundant, -1)
	for ai, a := range arrays {
		fmt.Fprintf(&b, "  array %s: duplicated=%v copy-factor=%.2f\n", a, copies[ai] > uniq[ai], copyFactor(copies[ai], uniq[ai]))
	}
	return b.String()
}
