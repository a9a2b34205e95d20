package exec

// The kernel engine. Specialize fuses everything an interpreting
// executor re-derives on every run — the cyclic block placement, the
// block prepass (ownership, distribution words, disjointness), and the
// per-iteration interpretation — into a flat kernel.Plan computed
// exactly once per (program, partition, processors) triple. A
// specialized Kernel then executes with
//
//   - no odometer: block iteration lists are lowered to straight-line
//     segments whose offsets advance by precomputed scalar strides;
//   - no redundancy tests: eliminated iterations are cut out of the
//     segment bounds (single-statement nests) or pre-baked bitmask rows
//     (multi-statement nests) at lowering time;
//   - no expression dispatch for the recognized shapes (matmul /
//     stencil / conv2d-like RHS), bytecode for the rest;
//   - no steady-state allocation: buffers, scratch, and checkpoint
//     storage live in arenas recycled through a sync.Pool; Validate
//     compares the arena with a dense reference and builds no key, and
//     Run's Final keys are formatted once per kernel, by the first Run.
//
// Blocks run on a bounded worker pool against dense flat buffers:
//
//   - non-duplicate strategies: communication-freedom means no two
//     blocks touch the same element, so every worker writes straight
//     into one shared buffer with no locks; the prepass asserts the
//     disjointness and refuses to specialize otherwise;
//   - duplicate strategies: each worker keeps a private buffer that is
//     reset to the initial values between blocks (the dense form of the
//     oracle's per-block private copies), and each element's final
//     value is committed by the block holding its globally last write —
//     a single owner per element, so the commit buffer needs no locks
//     either.
//
// Chaos semantics match the map oracle bit for bit: blocks remain the
// atomic retry unit, crash prefixes land on the same raw iteration
// counts (segment bounds keep raw block positions), and commits stay
// exactly-once via chaosRetryBlock.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"commfree/internal/assign"
	"commfree/internal/chaos"
	"commfree/internal/exec/kernel"
	"commfree/internal/machine"
	"commfree/internal/obs"
	"commfree/internal/partition"
)

// Kernel is a Program specialized against one partition result and
// processor count. It is read-only after Specialize (the arena pool is
// internally synchronized) and safe for concurrent Run calls.
type Kernel struct {
	prog *Program
	res  *partition.Result

	topo machine.Mesh
	st   *blockStats
	dup  bool

	plan *kernel.Plan

	// owned lists the cells a run's final state holds, array by array in
	// offset order; keys are their Final keys, formatted by the first Run.
	owned []ownedCell
	keys  func() []string

	arenas sync.Pool
}

// kernArena is the recyclable per-run state: the commit/shared buffers
// plus per-worker private buffers, scratch, and checkpoint storage.
type kernArena struct {
	bufs    [][]float64
	workers []*kernWorker
}

// kernWorker is one worker slot of an arena. priv is cloned lazily
// (duplicate strategies only) and held at the initial image between
// blocks; cp is the chaos checkpoint value log (disjoint strategies).
type kernWorker struct {
	scr  *kernel.Scratch
	priv [][]float64
	cp   []float64
}

// Specialize lowers the program against a partition into a reusable
// Kernel. Every statement lowers; what it refuses is a partition of
// another nest, footprints that are not disjoint under a non-duplicate
// strategy, and blocks beyond the kernel's int32 iteration range.
func (prog *Program) Specialize(res *partition.Result, p int) (*Kernel, error) {
	if res.Iter.Nest != prog.Nest {
		return nil, fmt.Errorf("exec: partition was computed from a different nest than the program")
	}
	if res.Redundant != prog.Red {
		return nil, fmt.Errorf("exec: partition and program disagree on redundant-computation elimination")
	}
	st, err := prog.prepass(res, p)
	if err != nil {
		return nil, err
	}
	plan, err := prog.lower(res)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		prog: prog, res: res,
		topo: machine.MeshFor(len(st.perNode)), st: st,
		dup: res.AllowsDuplication(), plan: plan,
	}
	for a, owner := range st.owner {
		for off, b := range owner {
			if b >= 0 {
				k.owned = append(k.owned, ownedCell{arr: int32(a), off: int64(off)})
			}
		}
	}
	k.keys = sync.OnceValue(k.finalKeys)
	return k, nil
}

// blockStats is the outcome of the sequential prepass over the
// partition blocks.
type blockStats struct {
	perNode [][]int // block indexes per processor
	total   int64   // iterations of all blocks
	words   []int   // distribution word count per processor
	bwords  []int   // distribution word count per block (span attribute)
	// owner[a][off] is the index of the block performing the globally
	// last non-redundant write to the element (-1: never written) —
	// the gather authority.
	owner [][]int32
}

// prepass sweeps the blocks once, sequentially, computing the block→
// processor map, the iteration total, per-node distribution words,
// and per-element write ownership. For non-duplicate strategies
// it also asserts that block footprints are disjoint — the property
// that lets the execution phase skip locking entirely.
func (prog *Program) prepass(res *partition.Result, p int) (*blockStats, error) {
	blocks, pts := res.Iter.Blocks, res.Iter.Index.Points
	if len(blocks) > 1<<30 {
		return nil, fmt.Errorf("exec: %d blocks exceed the kernel scheduler's range", len(blocks))
	}
	dupOK := res.AllowsDuplication()
	blockNode, loads := assign.Place(res.Iter.Q, p).Blocks(res.Iter)
	perNode := byNode(blockNode, len(loads))
	st := &blockStats{
		perNode: perNode,
		words:   make([]int, len(perNode)),
		bwords:  make([]int, len(blocks)),
		owner:   make([][]int32, len(prog.arrays)),
	}
	bestKey := make([][]int64, len(prog.arrays))
	epoch := make([][]int32, len(prog.arrays))
	var touched [][]int32
	if !dupOK {
		touched = make([][]int32, len(prog.arrays))
	}
	for i, lay := range prog.arrays {
		st.owner[i] = newInt32s(lay.Volume, -1)
		bestKey[i] = make([]int64, lay.Volume)
		epoch[i] = newInt32s(lay.Volume, -1)
		if !dupOK {
			touched[i] = newInt32s(lay.Volume, -1)
		}
	}
	nstmts := int64(len(prog.stmts))
	for bi, b := range blocks {
		node := blockNode[bi]
		st.total += int64(b.Size())
		seq := int32(bi)
		for _, pos := range b.Pos {
			it := pts[pos]
			for si := range prog.stmts {
				cs := &prog.stmts[si]
				if prog.isRedundant(si, int(pos)) {
					continue
				}
				for ri := range cs.reads {
					r := &cs.reads[ri]
					off := r.At(it)
					if epoch[r.Array][off] != seq {
						epoch[r.Array][off] = seq
						st.words[node]++
						st.bwords[bi]++
					}
					if !dupOK {
						if t := touched[r.Array][off]; t < 0 {
							touched[r.Array][off] = seq
						} else if t != seq {
							return nil, fmt.Errorf("exec: element of %s touched by blocks %d and %d — footprints not disjoint under %s",
								prog.arrays[r.Array].name, blocks[t].ID, b.ID, res.Strategy)
						}
					}
				}
				w := &cs.write
				off := w.At(it)
				key := int64(pos)*nstmts + int64(si) // later (position, statement) wins
				if st.owner[w.Array][off] < 0 || key > bestKey[w.Array][off] {
					bestKey[w.Array][off] = key
					st.owner[w.Array][off] = seq
				}
				if !dupOK {
					if t := touched[w.Array][off]; t < 0 {
						touched[w.Array][off] = seq
					} else if t != seq {
						return nil, fmt.Errorf("exec: element of %s touched by blocks %d and %d — footprints not disjoint under %s",
							prog.arrays[w.Array].name, blocks[t].ID, b.ID, res.Strategy)
					}
				}
			}
		}
	}
	return st, nil
}

func newInt32s(n int64, fill int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = fill
	}
	return s
}

// lower flattens every partition block into kernel segments/rows.
func (prog *Program) lower(res *partition.Result) (*kernel.Plan, error) {
	n := prog.Nest.Depth()
	pl := &kernel.Plan{Depth: n, MaxReads: prog.maxReads, Multi: len(prog.stmts) > 1}
	for si := range prog.stmts {
		cs := &prog.stmts[si]
		ks := kernel.Stmt{WriteArr: int32(cs.write.Array)}
		for ri := range cs.reads {
			ks.ReadArrs = append(ks.ReadArrs, int32(cs.reads[ri].Array))
		}
		ks.Fast, ks.MulAdd = kernel.Recognize(cs.st.Tree, len(cs.reads))
		if ks.Fast == kernel.FastBytecode {
			code, err := kernel.CompileTree(cs.st.Tree)
			if err != nil {
				return nil, err
			}
			ks.Code = code
			ks.UsesIndex = code.UsesIndex
			if code.StackNeed > pl.MaxStack {
				pl.MaxStack = code.StackNeed
			}
		}
		pl.RowWidth += 1 + len(cs.reads)
		pl.Stmts = append(pl.Stmts, ks)
	}

	blocks, pts := res.Iter.Blocks, res.Iter.Index.Points
	pl.BlockWR = make([][2]int32, len(blocks))
	if pl.Multi {
		pl.BlockRows = make([][2]int32, len(blocks))
	} else {
		pl.BlockSegs = make([][2]int32, len(blocks))
	}
	delta := make([]int64, n)
	zero := make([]int64, n)
	for bi, b := range blocks {
		pos := b.Pos // iteration t of the block is pts[pos[t]]
		if int64(len(pos)) > 1<<31-1 {
			return nil, fmt.Errorf("exec: block %d exceeds the kernel's iteration range", b.ID)
		}
		segStart, rowStart, wrStart := len(pl.Segs), len(pl.Rows), len(pl.WR)
		for t0 := 0; t0 < len(pos); {
			// Extend the run while consecutive iterations keep a
			// constant vector delta.
			t1 := t0 + 1
			d := zero
			if t1 < len(pos) {
				for j := 0; j < n; j++ {
					delta[j] = pts[pos[t1]][j] - pts[pos[t0]][j]
				}
				d = delta
				for t1 < len(pos) {
					same := true
					for j := 0; j < n; j++ {
						if pts[pos[t1]][j]-pts[pos[t1-1]][j] != d[j] {
							same = false
							break
						}
					}
					if !same {
						break
					}
					t1++
				}
			}
			if pl.Multi {
				prog.lowerRow(pl, pts, pos, t0, t1, d)
			} else {
				prog.lowerSegs(pl, pts, pos, t0, t1, d)
			}
			t0 = t1
		}
		if pl.Multi {
			pl.BlockRows[bi] = [2]int32{int32(rowStart), int32(len(pl.Rows))}
		} else {
			pl.BlockSegs[bi] = [2]int32{int32(segStart), int32(len(pl.Segs))}
		}
		pl.BlockWR[bi] = [2]int32{int32(wrStart), int32(len(pl.WR))}
	}
	return pl, nil
}

// dot is the per-iteration scalar advance of a linear offset function
// along a constant iteration delta.
func dot(coeffs, delta []int64) int64 {
	var s int64
	for j, c := range coeffs {
		s += c * delta[j]
	}
	return s
}

// appendWR records a write footprint range, collapsing zero-stride
// runs (a reduction writing one cell N times) to a single entry.
func appendWR(pl *kernel.Plan, arr int32, off, step int64, count int) {
	if step == 0 {
		count = 1
	}
	pl.WR = append(pl.WR, kernel.WriteRange{Arr: arr, N: int32(count), Off: off, Step: step})
}

// lowerSegs emits the segments of one constant-delta run of a
// single-statement block, splitting at redundant iterations so the
// executor never tests them. Segment T0 keeps the raw block position.
func (prog *Program) lowerSegs(pl *kernel.Plan, pts [][]int64, pos []int32, t0, t1 int, d []int64) {
	cs := &prog.stmts[0]
	ks := &pl.Stmts[0]
	for t := t0; t < t1; {
		for t < t1 && prog.isRedundant(0, int(pos[t])) {
			t++
		}
		if t >= t1 {
			return
		}
		s := t
		for t < t1 && !prog.isRedundant(0, int(pos[t])) {
			t++
		}
		sg := kernel.Seg{
			Stmt: 0, T0: int32(s), N: int32(t - s),
			WOff: cs.write.At(pts[pos[s]]), WStep: dot(cs.write.Coeffs, d),
			RBase: int32(len(pl.ROff)), IBase: -1, DBase: -1,
		}
		for ri := range cs.reads {
			r := &cs.reads[ri]
			pl.ROff = append(pl.ROff, r.At(pts[pos[s]]))
			pl.RStep = append(pl.RStep, dot(r.Coeffs, d))
		}
		if ks.UsesIndex {
			sg.IBase = int32(len(pl.It0))
			sg.DBase = int32(len(pl.Delta))
			pl.It0 = append(pl.It0, pts[pos[s]]...)
			pl.Delta = append(pl.Delta, d...)
		}
		pl.Segs = append(pl.Segs, sg)
		appendWR(pl, ks.WriteArr, sg.WOff, sg.WStep, t-s)
	}
}

// lowerRow emits one row covering a constant-delta run of a
// multi-statement block; redundant (statement, iteration) pairs become
// mask bits rather than splits, preserving the per-iteration statement
// interleaving the sequential semantics require.
func (prog *Program) lowerRow(pl *kernel.Plan, pts [][]int64, pos []int32, t0, t1 int, d []int64) {
	count := t1 - t0
	row := kernel.Row{
		T0: int32(t0), N: int32(count),
		OBase: int32(len(pl.RowOff)), MBase: -1, IBase: -1, DBase: -1,
	}
	anyIndex := false
	anyRedundant := false
	for si := range prog.stmts {
		cs := &prog.stmts[si]
		pl.RowOff = append(pl.RowOff, cs.write.At(pts[pos[t0]]))
		pl.RowStep = append(pl.RowStep, dot(cs.write.Coeffs, d))
		for ri := range cs.reads {
			r := &cs.reads[ri]
			pl.RowOff = append(pl.RowOff, r.At(pts[pos[t0]]))
			pl.RowStep = append(pl.RowStep, dot(r.Coeffs, d))
		}
		if pl.Stmts[si].UsesIndex {
			anyIndex = true
		}
		// The write footprint leaves out masked (redundant) iterations:
		// the cell such an iteration names is written by whichever block
		// holds the surviving computation, possibly on another worker, and
		// a chaos restore of it here would undo that block's write.
		wstep := dot(cs.write.Coeffs, d)
		for t := t0; t < t1; {
			for t < t1 && prog.isRedundant(si, int(pos[t])) {
				t++
			}
			s := t
			for t < t1 && !prog.isRedundant(si, int(pos[t])) {
				t++
			}
			if t > s {
				appendWR(pl, pl.Stmts[si].WriteArr, cs.write.At(pts[pos[s]]), wstep, t-s)
			}
		}
	}
	for t := t0; t < t1 && !anyRedundant; t++ {
		for si := range prog.stmts {
			if prog.isRedundant(si, int(pos[t])) {
				anyRedundant = true
				break
			}
		}
	}
	if anyRedundant {
		row.MBase = int32(len(pl.Masks))
		mwords := (count + 63) / 64
		base := len(pl.Masks)
		pl.Masks = append(pl.Masks, make([]uint64, mwords*len(prog.stmts))...)
		for si := range prog.stmts {
			for t := t0; t < t1; t++ {
				if prog.isRedundant(si, int(pos[t])) {
					rt := t - t0
					pl.Masks[base+si*mwords+rt>>6] |= 1 << uint(rt&63)
				}
			}
		}
	}
	if anyIndex {
		row.IBase = int32(len(pl.It0))
		row.DBase = int32(len(pl.Delta))
		pl.It0 = append(pl.It0, pts[pos[t0]]...)
		pl.Delta = append(pl.Delta, d...)
	}
	pl.Rows = append(pl.Rows, row)
}

// getArena takes a recycled arena (or builds one) with the shared /
// commit buffers reset to the initial image. Worker private buffers
// rely on the between-blocks invariant (priv == init) instead.
func (k *Kernel) getArena(workers int) *kernArena {
	ar, ok := k.arenas.Get().(*kernArena)
	if !ok {
		ar = &kernArena{bufs: k.prog.cloneBuffers()}
	} else {
		for i, lay := range k.prog.arrays {
			copy(ar.bufs[i], lay.init)
		}
	}
	for len(ar.workers) < workers {
		ar.workers = append(ar.workers, &kernWorker{scr: k.plan.NewScratch()})
	}
	return ar
}

// Run executes the specialized kernel. Reports, accounting, and final
// state are bit-identical to the map oracle; the machine's Gantt trace
// is not recorded (use the oracle for timeline rendering).
func (k *Kernel) Run(cost machine.CostModel, opts Options) (*Report, error) {
	mach, ar, err := k.run(cost, opts)
	if err != nil {
		return nil, err
	}
	rep := newReport(mach, k.gather(ar.bufs), opts.Chaos)
	k.arenas.Put(ar)
	return rep, nil
}

// run executes the kernel on a pooled arena and returns the machine it
// charged and the arena holding the final state; the caller puts the
// arena back once it has read it.
func (k *Kernel) run(cost machine.CostModel, opts Options) (*machine.Machine, *kernArena, error) {
	trc, parent, inj := opts.Trace, opts.Parent, opts.Chaos
	mach := machine.New(k.topo, cost)
	if inj != nil {
		mach.SetFaultInjector(inj)
	}

	dsp := trc.Start(parent, "distribute")
	if dsp.OK() {
		var msgs, words int
		var secs float64
		mach.SetChargeHook(func(_, m, w int, s float64) { msgs += m; words += w; secs += s })
		for id, w := range k.st.words {
			mach.ChargeSendWords(id, w)
		}
		mach.SetChargeHook(nil)
		dsp.SetInt("messages", int64(msgs))
		dsp.SetInt("words", int64(words))
		dsp.SetInt("sim_ns", int64(secs*1e9))
	} else {
		for id, w := range k.st.words {
			mach.ChargeSendWords(id, w)
		}
	}
	dsp.End()

	// A fault-free run spends its iterations up front, and its blocks
	// only poll for cancellation; under chaos every attempt spends its own.
	if inj == nil {
		if err := opts.Budget.Spend(k.st.total); err != nil {
			return nil, nil, err
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(k.st.perNode) {
		workers = len(k.st.perNode)
	}
	ar := k.getArena(workers)
	bt := newBlockTrace(trc, parent, len(k.res.Iter.Blocks))
	var err error
	if k.dup {
		err = k.runDuplicate(mach, ar, workers, bt, opts)
	} else {
		err = k.runDisjoint(mach, ar, workers, bt, opts)
	}
	if err != nil {
		// The arena may hold partial writes; drop it rather than
		// poisoning the pool.
		return nil, nil, err
	}
	bt.publish()
	return mach, ar, nil
}

// blockTrace is the tracing state of one traced parallel run: one
// compact int64 row per block, filled lock-free by the block's owning
// worker (each block index is written exactly once), published with one
// BulkCompact call after the run. The rows carry no pointers, so the
// hot path does plain integer stores — no allocation, no GC write
// barriers — and tracing adds a single allocation per run.
type blockTrace struct {
	tr     *obs.Trace
	parent obs.SpanID
	vals   []int64 // blockStride entries per block
}

// blockStride is one row: [startNS, durNS, worker, node, block,
// iterations, words]; blockKeys names the attribute columns.
const blockStride = 7

var blockKeys = []string{"worker", "node", "block", "iterations", "words"}

func newBlockTrace(tr *obs.Trace, parent obs.SpanID, blocks int) *blockTrace {
	if tr == nil {
		return nil
	}
	bt := &blockTrace{tr: tr, parent: parent, vals: make([]int64, blockStride*blocks)}
	for i := 0; i < blocks; i++ {
		bt.vals[blockStride*i+1] = -1 // mark "never ran" for BulkCompact
	}
	return bt
}

// record fills block bi's row. Safe without locks: bi is owned by
// exactly one worker and the row is a disjoint sub-range. The caller
// supplies both endpoints so consecutive blocks on one worker can chain
// them and pay one clock read per block.
func (bt *blockTrace) record(bi, blockID, worker, node int, iters int64, words int, start, now time.Duration) {
	row := bt.vals[blockStride*bi : blockStride*bi+blockStride]
	row[0] = start.Nanoseconds()
	row[1] = (now - start).Nanoseconds()
	row[2] = int64(worker)
	row[3] = int64(node)
	row[4] = int64(blockID)
	row[5] = iters
	row[6] = int64(words)
}

// publish hands the rows to the trace; nil-safe.
func (bt *blockTrace) publish() {
	if bt != nil {
		bt.tr.BulkCompact(bt.parent, "block", blockKeys, bt.vals)
	}
}

// chaosRetryBlock drives the bounded retry loop for one block. Each
// attempt's fate comes from the injector's pure schedule; the hooks do
// the actual work:
//
//	run(count) — execute the first count raw iterations
//	commit()   — make a completed attempt durable
//	restore()  — roll a crashed partial attempt back
//
// A completed attempt whose crash lands post-commit sets a completion
// marker, so recovery replays are no-ops (commits are exactly-once).
// Budget is spent per attempt — retries are real work.
func chaosRetryBlock(inj *chaos.Injector, node, blockID, maxRetries int, iters int64, budget *machine.Budget, run func(count int64), commit, restore func()) error {
	done := false
	for attempt := 0; ; attempt++ {
		fail, post := inj.BlockFault(blockID, attempt)
		if !fail {
			if !done {
				if err := budget.Spend(iters); err != nil {
					return err
				}
				run(iters)
				commit()
			}
			return nil
		}
		switch {
		case done:
			// Crash while recovering an already-committed block: the
			// completion marker makes the retry a no-op.
		case post:
			// Crash after the commit point: the work is durable.
			if err := budget.Spend(iters); err != nil {
				return err
			}
			run(iters)
			commit()
			done = true
		default:
			// Mid-compute crash: a deterministic prefix runs, then its
			// writes are rolled back.
			cut := inj.Cut(blockID, attempt, iters)
			if err := budget.Spend(cut); err != nil {
				return err
			}
			run(cut)
			restore()
		}
		inj.CountRetry()
		if attempt+1 > maxRetries {
			return &chaos.FaultError{Node: node, Block: blockID, Attempt: attempt}
		}
	}
}

// runDisjoint: all workers share one buffer (footprints disjoint by
// the prepass assertion); chaos recovery checkpoints each block's
// write ranges before the attempt loop and restores them on a crash.
func (k *Kernel) runDisjoint(mach *machine.Machine, ar *kernArena, workers int, bt *blockTrace, opts Options) error {
	budget, inj := opts.Budget, opts.Chaos
	blocks := k.res.Iter.Blocks
	st, pl, shared := k.st, k.plan, ar.bufs
	return mach.RunBounded(workers, func(w int, nd *machine.Node) error {
		kw := ar.workers[w]
		var last time.Duration
		if bt != nil {
			last = bt.tr.Since()
		}
		for _, bi := range st.perNode[nd.ID] {
			if inj == nil {
				if err := budget.Spend(0); err != nil {
					return err
				}
				pl.ExecBlock(bi, int64(blocks[bi].Size()), shared, kw.scr)
			} else {
				kw.checkpoint(pl, bi, shared)
				err := chaosRetryBlock(inj, nd.ID, blocks[bi].ID, opts.maxRetries(), int64(blocks[bi].Size()), budget,
					func(count int64) { pl.ExecBlock(bi, count, shared, kw.scr) },
					func() {}, // shared-buffer writes are the commit
					func() { kw.restore(pl, bi, shared) },
				)
				if err != nil {
					return err
				}
				if d := inj.NodeDelayS(nd.ID); d > 0 {
					mach.AddComputeSeconds(d)
				}
			}
			nd.AddIterations(int64(blocks[bi].Size()))
			if bt != nil {
				now := bt.tr.Since()
				bt.record(bi, blocks[bi].ID, w, nd.ID, int64(blocks[bi].Size()), st.bwords[bi], last, now)
				last = now
			}
		}
		return nil
	})
}

// runDuplicate: each worker executes blocks against a lazily cloned
// private buffer, committing owned cells into the shared final image
// and resetting the private cells to init between blocks, both driven
// by the plan's precomputed write ranges.
func (k *Kernel) runDuplicate(mach *machine.Machine, ar *kernArena, workers int, bt *blockTrace, opts Options) error {
	budget, inj := opts.Budget, opts.Chaos
	blocks := k.res.Iter.Blocks
	st, pl, final := k.st, k.plan, ar.bufs
	return mach.RunBounded(workers, func(w int, nd *machine.Node) error {
		kw := ar.workers[w]
		if kw.priv == nil {
			kw.priv = k.prog.cloneBuffers()
		}
		var last time.Duration
		if bt != nil {
			last = bt.tr.Since()
		}
		for _, bi := range st.perNode[nd.ID] {
			seq := int32(bi)
			if inj == nil {
				if err := budget.Spend(0); err != nil {
					return err
				}
				pl.ExecBlock(bi, int64(blocks[bi].Size()), kw.priv, kw.scr)
				k.commitAndReset(bi, seq, kw.priv, final)
			} else {
				err := chaosRetryBlock(inj, nd.ID, blocks[bi].ID, opts.maxRetries(), int64(blocks[bi].Size()), budget,
					func(count int64) { pl.ExecBlock(bi, count, kw.priv, kw.scr) },
					func() { k.commitAndReset(bi, seq, kw.priv, final) },
					func() { k.resetRanges(bi, kw.priv) },
				)
				if err != nil {
					return err
				}
				if d := inj.NodeDelayS(nd.ID); d > 0 {
					mach.AddComputeSeconds(d)
				}
			}
			nd.AddIterations(int64(blocks[bi].Size()))
			if bt != nil {
				now := bt.tr.Since()
				bt.record(bi, blocks[bi].ID, w, nd.ID, int64(blocks[bi].Size()), st.bwords[bi], last, now)
				last = now
			}
		}
		return nil
	})
}

// checkpoint saves the pre-attempt image of block bi's write ranges.
func (kw *kernWorker) checkpoint(pl *kernel.Plan, bi int, bufs [][]float64) {
	kw.cp = kw.cp[:0]
	wr := pl.BlockWR[bi]
	for i := wr[0]; i < wr[1]; i++ {
		r := &pl.WR[i]
		b, off := bufs[r.Arr], r.Off
		for t := int32(0); t < r.N; t++ {
			kw.cp = append(kw.cp, b[off])
			off += r.Step
		}
	}
}

// restore replays the checkpoint in the same forward order it was
// saved — overlapping ranges hold the same pre-attempt value, so the
// replay is idempotent.
func (kw *kernWorker) restore(pl *kernel.Plan, bi int, bufs [][]float64) {
	wr := pl.BlockWR[bi]
	j := 0
	for i := wr[0]; i < wr[1]; i++ {
		r := &pl.WR[i]
		b, off := bufs[r.Arr], r.Off
		for t := int32(0); t < r.N; t++ {
			b[off] = kw.cp[j]
			j++
			off += r.Step
		}
	}
}

// commitAndReset publishes the cells block seq owns into final, then
// resets the private cells to the initial image. Commit and reset are
// separate passes: write ranges of one block may overlap (a statement
// rewriting a cell, or two statements sharing one), and a fused pass
// would commit an already-reset cell.
func (k *Kernel) commitAndReset(bi int, seq int32, priv, final [][]float64) {
	wr := k.plan.BlockWR[bi]
	for i := wr[0]; i < wr[1]; i++ {
		r := &k.plan.WR[i]
		owner, fb, pb := k.st.owner[r.Arr], final[r.Arr], priv[r.Arr]
		off := r.Off
		for t := int32(0); t < r.N; t++ {
			if owner[off] == seq {
				fb[off] = pb[off]
			}
			off += r.Step
		}
	}
	k.resetRanges(bi, priv)
}

// resetRanges rolls block bi's write footprint in priv back to the
// initial image (crash recovery, and the between-blocks reset).
func (k *Kernel) resetRanges(bi int, priv [][]float64) {
	wr := k.plan.BlockWR[bi]
	for i := wr[0]; i < wr[1]; i++ {
		r := &k.plan.WR[i]
		init, pb := k.prog.arrays[r.Arr].init, priv[r.Arr]
		off := r.Off
		for t := int32(0); t < r.N; t++ {
			pb[off] = init[off]
			off += r.Step
		}
	}
}

// ParallelKernel compiles, specializes, and runs in one call — the
// convenience entry point for one-shot callers and the differential
// tests. Hot paths should Specialize once and Run repeatedly.
func ParallelKernel(res *partition.Result, p int, cost machine.CostModel, opts Options) (*Report, error) {
	prog, err := CompilePartition(res)
	if err != nil {
		return nil, err
	}
	kern, err := prog.Specialize(res, p)
	if err != nil {
		return nil, err
	}
	return kern.Run(cost, opts)
}
