// Package exec executes loop nests — sequentially as the reference
// semantics, and in parallel on the simulated multicomputer under a
// communication-free partition. The parallel path is the end-to-end proof
// of the paper's construction: iterations run on per-node goroutines
// against strictly local memories, and the final array state must equal
// the sequential one with zero inter-node messages.
package exec

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"commfree/internal/assign"
	"commfree/internal/chaos"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
	"commfree/internal/redundant"
)

// Key names an array element in memory, e.g. "A[2 1]".
func Key(array string, idx []int64) string {
	return array + fmt.Sprint(idx)
}

// ParseKey inverts Key: "A[2 1]" → ("A", [2, 1]).
func ParseKey(k string) (array string, idx []int64, err error) {
	open := strings.IndexByte(k, '[')
	if open < 0 || !strings.HasSuffix(k, "]") {
		return "", nil, fmt.Errorf("exec: malformed state key %q", k)
	}
	array = k[:open]
	body := k[open+1 : len(k)-1]
	if body == "" {
		return array, nil, nil
	}
	for _, f := range strings.Fields(body) {
		v, perr := strconv.ParseInt(f, 10, 64)
		if perr != nil {
			return "", nil, fmt.Errorf("exec: malformed state key %q: %v", k, perr)
		}
		idx = append(idx, v)
	}
	return array, idx, nil
}

// InitValue is the deterministic initial value of every array element —
// shared by the sequential and parallel executors so results compare
// exactly.
func InitValue(array string, idx []int64) float64 {
	h := float64(len(array)) * 7
	for _, c := range array {
		h = h*31 + float64(c%13)
	}
	for _, x := range idx {
		h = h*31 + float64(x)
	}
	return float64(int64(h) % 1009)
}

// Sequential executes the nest in lexicographic order and returns the
// final array state (only elements actually written appear). When red is
// non-nil, redundant computations are skipped — by Section III.C this
// leaves the final state unchanged.
func Sequential(nest *loop.Nest, red *redundant.Result) map[string]float64 {
	return SequentialInit(nest, red, InitValue)
}

// SequentialInit is Sequential with an injectable initial-value function
// for elements read before any write. The normalization conformance
// check uses it to ground data relabels: the raw affine nest runs with
// init drawn at the relabeled coordinates, so its state must match the
// normalized nest's under the relabel map.
func SequentialInit(nest *loop.Nest, red *redundant.Result, init func(array string, idx []int64) float64) map[string]float64 {
	state := map[string]float64{}
	readVal := func(array string, idx []int64) float64 {
		k := Key(array, idx)
		if v, ok := state[k]; ok {
			return v
		}
		return init(array, idx)
	}
	// One read-value scratch for the whole walk, sized to the widest
	// statement; per-statement allocation here dominated the oracle's
	// sequential profile.
	scratch := make([]float64, maxReads(nest))
	nest.Walk(func(it []int64) bool {
		for si, st := range nest.Body {
			if red != nil && red.IsRedundant(si, it) {
				continue
			}
			vals := scratch[:len(st.Reads)]
			for ri, r := range st.Reads {
				vals[ri] = readVal(r.Array, r.Index(it))
			}
			state[Key(st.Write.Array, st.Write.Index(it))] = st.EvalExpr(it, vals)
		}
		return true
	})
	return state
}

// maxReads is the widest read list across the nest's statements.
func maxReads(nest *loop.Nest) int {
	m := 0
	for _, st := range nest.Body {
		if len(st.Reads) > m {
			m = len(st.Reads)
		}
	}
	return m
}

// Report is the outcome of a parallel execution.
type Report struct {
	Machine *machine.Machine
	// Final is the gathered array state (authoritative copies only).
	Final map[string]float64
	// IterationsPerNode is the per-node workload.
	IterationsPerNode []int64
	// Chaos snapshots the injector's cumulative fault/retry counters at
	// the end of the run (zero when no injector was attached).
	Chaos chaos.Stats
}

// newReport snapshots a finished run on mach.
func newReport(mach *machine.Machine, final map[string]float64, inj *chaos.Injector) *Report {
	rep := &Report{Machine: mach, Final: final, IterationsPerNode: make([]int64, mach.NumNodes())}
	for id := range rep.IterationsPerNode {
		rep.IterationsPerNode[id] = mach.Node(id).Stats().Iterations
	}
	if inj != nil {
		rep.Chaos = inj.Stats()
	}
	return rep
}

// BlockKey namespaces an element key with the block that owns the copy.
// Duplicate-data strategies give every block a PRIVATE copy of the
// elements it touches; when several blocks land on one processor, the
// copies must stay distinct or cross-block anti/output dependences
// (legal under duplication) would corrupt each other through the shared
// local memory. The executor therefore stores each copy under
// "b<ID>|<element>".
func BlockKey(blockID int, elemKey string) string {
	return fmt.Sprintf("b%d|%s", blockID, elemKey)
}

// Parallel executes a communication-free partition on p simulated
// processors with the given cost model. It distributes each block's read
// set to its processor by pipelined unicast (private block copies), runs
// all nodes concurrently, and gathers the final state from the block
// holding each element's globally last write.
func Parallel(res *partition.Result, p int, cost machine.CostModel) (*Report, error) {
	return ParallelOpts(res, p, cost, Options{})
}

// placeBlocks puts every block on the processor of its base point —
// Section IV's (Q·b̄_j) mod (p₁,…,p_k) — and lists each processor's
// blocks (indexes into res.Iter.Blocks, ascending). The forall point is
// constant across a coset block (Q ⊥ Ψ), so this is the per-iteration
// owner; MARS blocks group iterations across forall points and must not
// be split, so block granularity is the only correct choice there.
func placeBlocks(res *partition.Result, p int) (blockNode []int, perNode [][]int) {
	place := assign.Place(res.Iter.Q, p)
	blockNode = make([]int, len(res.Iter.Blocks))
	perNode = make([][]int, place.NumProcessors())
	for bi, b := range res.Iter.Blocks {
		id := place.OwnerOf(b.Base)
		blockNode[bi] = id
		perNode[id] = append(perNode[id], bi)
	}
	return blockNode, perNode
}

// ParallelOpts is the oracle scheduler under the full option set —
// budget, tracing, and chaos injection: per-node unicast distribution,
// then RunDistributed.
func ParallelOpts(res *partition.Result, p int, cost machine.CostModel, opts Options) (*Report, error) {
	nest, red, ix, blocks := res.Iter.Nest, res.Redundant, res.Iter.Index, res.Iter.Blocks
	blockNode, perNode := placeBlocks(res, p)
	mach := machine.New(machine.MeshFor(len(perNode)), cost)
	mach.EnableTrace()
	if opts.Chaos != nil {
		mach.SetFaultInjector(opts.Chaos)
	}

	// Distribution: every element a block reads is preloaded into its
	// node under the block's private key. Charged as one pipelined
	// unicast per node.
	dsp := opts.Trace.Start(opts.Parent, "distribute")
	var bwords []int
	var msgs, words int
	var secs float64
	if dsp.OK() {
		bwords = make([]int, len(blocks))
		mach.SetChargeHook(func(_, m, w int, s float64) { msgs += m; words += w; secs += s })
	}
	for id, blks := range perNode {
		elems := map[string]float64{}
		for _, bi := range blks {
			b, before := blocks[bi], len(elems)
			for _, pos := range b.Pos {
				it := ix.Points[pos]
				for si, st := range nest.Body {
					if red != nil && red.RedundantAt(si, int(pos)) {
						continue
					}
					for _, r := range st.Reads {
						idx := r.Index(it)
						elems[BlockKey(b.ID, Key(r.Array, idx))] = InitValue(r.Array, idx)
					}
				}
			}
			if bwords != nil {
				// BlockKey namespaces every entry, so growth since
				// `before` is exactly this block's word count.
				bwords[bi] = len(elems) - before
			}
		}
		data := make([]machine.Datum, 0, len(elems))
		for k, v := range elems {
			data = append(data, machine.Datum{Key: k, Value: v})
		}
		mach.SendTo(id, data)
	}
	if dsp.OK() {
		mach.SetChargeHook(nil)
		dsp.SetInt("messages", int64(msgs))
		dsp.SetInt("words", int64(words))
		dsp.SetInt("sim_ns", int64(secs*1e9))
	}
	dsp.End()
	return RunDistributed(res, mach, blockNode, bwords, opts)
}

// RunDistributed is the oracle once distribution is done: every block's
// read set sits on node blockNode[bi] of mach under the block's private
// keys (BlockKey), however it got there — ParallelOpts unicasts it, a
// distribution plan multicasts it. The blocks run, one goroutine per
// node, and the final state is gathered from the block holding each
// element's globally last write. blockWords[bi] is the word count the
// block's span reports; it is read only when opts carries a trace.
//
// Under chaos, every block is an atomic recovery unit: a deterministic
// failure schedule crashes blocks mid-compute or post-commit, and each
// is retried at block granularity from a checkpoint of its write
// footprint, which is sound precisely because communication-free blocks
// never share cells.
func RunDistributed(res *partition.Result, mach *machine.Machine, blockNode, blockWords []int, opts Options) (*Report, error) {
	nest, red, ix, blocks := res.Iter.Nest, res.Redundant, res.Iter.Index, res.Iter.Blocks
	inj := opts.Chaos
	perNode := make([][]int, mach.NumNodes())
	for bi, id := range blockNode {
		perNode[id] = append(perNode[id], bi)
	}

	// The oracle runs one goroutine per node, so worker id == node id in
	// block spans.
	bt := newBlockTrace(opts.Trace, opts.Parent, len(blocks))
	err := mach.Run(func(n *machine.Node) error {
		var last time.Duration
		if bt != nil {
			last = bt.tr.Since()
		}
		for _, bi := range perNode[n.ID] {
			b := blocks[bi]
			if err := runOracleBlock(res, n, b, opts); err != nil {
				return err
			}
			if d := inj.NodeDelayS(n.ID); d > 0 {
				mach.AddComputeSeconds(d)
			}
			if bt != nil {
				now := bt.tr.Since()
				bt.record(bi, b.ID, n.ID, n.ID, int64(b.Size()), blockWords[bi], last, now)
				last = now
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	bt.publish()

	// Ownership: the block performing the globally last (non-redundant)
	// write — the largest (position, statement) — holds the
	// authoritative copy; gather from its node.
	type ownerInfo struct {
		block int
		at    int64
	}
	owner := map[string]ownerInfo{}
	nstmts := int64(len(nest.Body))
	for bi, b := range blocks {
		for _, pos := range b.Pos {
			it := ix.Points[pos]
			for si, st := range nest.Body {
				if red != nil && red.RedundantAt(si, int(pos)) {
					continue
				}
				k, at := Key(st.Write.Array, st.Write.Index(it)), int64(pos)*nstmts+int64(si)
				if o, ok := owner[k]; !ok || at > o.at {
					owner[k] = ownerInfo{block: bi, at: at}
				}
			}
		}
	}
	final := map[string]float64{}
	for k, o := range owner {
		if v, ok := mach.Node(blockNode[o.block]).Value(BlockKey(blocks[o.block].ID, k)); ok {
			final[k] = v
		}
	}
	return newReport(mach, final, inj), nil
}

// runOracleBlock executes one block on its node. With no injector it is
// a single pass over the block's iterations; under chaos it becomes a
// bounded retry loop around the same pass, with a checkpoint of the
// block's write-set image taken up front so a crashed attempt's partial
// writes can be rolled back before the re-run.
func runOracleBlock(res *partition.Result, n *machine.Node, b *partition.Block, opts Options) error {
	nest, red, pts := res.Iter.Nest, res.Redundant, res.Iter.Index.Points
	inj, size := opts.Chaos, int64(b.Size())
	scratch := make([]float64, maxReads(nest))
	run := func(count int64) error {
		for _, pos := range b.Pos[:count] {
			if err := opts.Budget.Spend(1); err != nil {
				return err
			}
			it := pts[pos]
			for si, st := range nest.Body {
				if red != nil && red.RedundantAt(si, int(pos)) {
					continue
				}
				vals := scratch[:len(st.Reads)]
				for ri, r := range st.Reads {
					v, err := n.Read(BlockKey(b.ID, Key(r.Array, r.Index(it))))
					if err != nil {
						return err
					}
					vals[ri] = v
				}
				n.Write(BlockKey(b.ID, Key(st.Write.Array, st.Write.Index(it))), st.EvalExpr(it, vals))
			}
			n.CountIteration()
		}
		return nil
	}
	if inj == nil {
		return run(size)
	}

	// Checkpoint: the pre-execution image of the block's write set.
	// Restoring it in reverse makes a crashed attempt invisible; keys
	// absent before the block are left holding stale partial values, but
	// those are write-only (every read key is preloaded at distribution
	// time), so the eventual successful pass overwrites them before
	// gather ever looks.
	type cpEntry struct {
		key     string
		val     float64
		existed bool
	}
	var cps []cpEntry
	seen := map[string]bool{}
	for _, pos := range b.Pos {
		for si, st := range nest.Body {
			if red != nil && red.RedundantAt(si, int(pos)) {
				continue
			}
			k := BlockKey(b.ID, Key(st.Write.Array, st.Write.Index(pts[pos])))
			if !seen[k] {
				seen[k] = true
				v, ok := n.Value(k)
				cps = append(cps, cpEntry{k, v, ok})
			}
		}
	}

	done := false
	for attempt := 0; ; attempt++ {
		fail, post := inj.BlockFault(b.ID, attempt)
		if !fail {
			if !done {
				return run(size)
			}
			return nil
		}
		switch {
		case done:
			// Crash while recovering an already-committed block: the
			// completion record makes the retry a no-op.
		case post:
			// Crash after the commit point: the work is durable; mark it
			// so later attempts skip instead of double-executing.
			if err := run(size); err != nil {
				return err
			}
			done = true
		default:
			// Mid-compute crash: a deterministic prefix of the block
			// runs, then the checkpoint rolls its writes back.
			if err := run(inj.Cut(b.ID, attempt, size)); err != nil {
				return err
			}
			for i := len(cps) - 1; i >= 0; i-- {
				if cps[i].existed {
					n.Write(cps[i].key, cps[i].val)
				}
			}
		}
		inj.CountRetry()
		if attempt+1 > opts.maxRetries() {
			return &chaos.FaultError{Node: n.ID, Block: b.ID, Attempt: attempt}
		}
	}
}

// Equal compares two array states and returns the first difference.
func Equal(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("exec: state sizes differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok {
			return fmt.Errorf("exec: element %s missing", k)
		}
		if v != w {
			return fmt.Errorf("exec: element %s = %v vs %v", k, v, w)
		}
	}
	return nil
}

// Mismatches is the validation verdict as a count: elements of want that
// got lacks (missing) or holds with a different value, plus elements of
// got that want does not have (surplus, by counting: got holds every
// non-missing key of want, the rest are extra). Zero exactly when
// Equal(got, want) is nil.
func Mismatches(got, want map[string]float64) int {
	missing, differing := 0, 0
	for k, wv := range want {
		if gv, ok := got[k]; !ok {
			missing++
		} else if gv != wv {
			differing++
		}
	}
	surplus := len(got) - (len(want) - missing)
	return missing + differing + surplus
}

// The keyed views of the dense engine. The kernel and the reference
// keep their state in the program's layout; these build the map form
// only for callers that ask for one (Report.Final from Run,
// Program.Sequential), and this file is the one outside the oracle that
// formats element keys.

// appendKey formats Key(name, idx) into dst without fmt — the views
// build one key per written element, and fmt.Sprint would dominate the
// allocation profile. The output must stay byte-identical to Key (the
// differential tests compare final states across engines by these
// strings).
func appendKey(dst []byte, name string, idx []int64) []byte {
	dst = append(dst[:0], name...)
	dst = append(dst, '[')
	for i, x := range idx {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, x, 10)
	}
	return append(dst, ']')
}

// Sequential executes the compiled nest in lexicographic order and
// returns the final array state (written elements only): the keyed view
// of Reference, bit-identical to the map-based Sequential oracle.
func (p *Program) Sequential() map[string]float64 { return p.Reference().keyed() }

// keyed is the map form of the state: the written cells by Key.
func (s *State) keyed() map[string]float64 {
	final := make(map[string]float64, s.n)
	var kb []byte
	for i, lay := range s.prog.arrays {
		w := s.written[i]
		lay.eachIndex(func(off int64, idx []int64) {
			if w[off] {
				kb = appendKey(kb, lay.name, idx)
				final[string(kb)] = s.vals[i][off]
			}
		})
	}
	return final
}

// finalKeys formats the Final key of every owned cell, in owned order.
func (k *Kernel) finalKeys() []string {
	keys := make([]string, len(k.owned))
	var kb []byte
	var idx []int64
	for i, c := range k.owned {
		lay := k.prog.arrays[c.arr]
		if len(idx) != len(lay.Lo) {
			idx = make([]int64, len(lay.Lo))
		}
		kb = appendKey(kb, lay.name, lay.Unrank(c.off, idx))
		keys[i] = string(kb)
	}
	return keys
}

// gather is the map form of a run's final state: the owned cells by Key.
func (k *Kernel) gather(bufs [][]float64) map[string]float64 {
	keys := k.keys()
	final := make(map[string]float64, len(keys))
	for i, c := range k.owned {
		final[keys[i]] = bufs[c.arr][c.off]
	}
	return final
}
