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
	"commfree/internal/transform"
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
	state := map[string]float64{}
	readVal := func(array string, idx []int64) float64 {
		k := Key(array, idx)
		if v, ok := state[k]; ok {
			return v
		}
		return InitValue(array, idx)
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
	Machine    *machine.Machine
	Transform  *transform.Transformed
	Assignment *assign.Assignment
	// Final is the gathered array state (authoritative copies only).
	Final map[string]float64
	// IterationsPerNode is the per-node workload.
	IterationsPerNode []int64
	// Chaos snapshots the injector's cumulative fault/retry counters at
	// the end of the run (zero when no injector was attached).
	Chaos chaos.Stats
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

// ParallelOpts is the oracle scheduler under the full option set —
// budget, tracing, and chaos injection. Under chaos, every block is an
// atomic recovery unit: a deterministic failure schedule crashes
// blocks mid-compute or post-commit, and the executor retries each at
// block granularity from a checkpoint of its write footprint, which is
// sound precisely because communication-free blocks never share cells.
func ParallelOpts(res *partition.Result, p int, cost machine.CostModel, opts Options) (*Report, error) {
	nest := res.Iter.Nest
	budget, trc, parent, inj := opts.Budget, opts.Trace, opts.Parent, opts.Chaos
	tr, err := transform.Transform(nest, res.Psi)
	if err != nil {
		return nil, err
	}
	asg := assign.Assign(tr, p)
	used := asg.NumProcessors()
	topo := machine.Mesh{P1: 1, P2: used}
	if sq, err := machine.SquareMesh(used); err == nil {
		topo = sq
	}
	mach := machine.New(topo, cost)
	mach.EnableTrace()
	if inj != nil {
		mach.SetFaultInjector(inj)
	}

	// Per-node block lists. The forall point is constant across a block
	// (the transformation projects Ψ out), so one OwnerID lookup per
	// block replaces a walk of the whole iteration space, and each
	// block's already-partitioned iteration list is shared rather than
	// re-materialized.
	perNode := make([][]*partition.Block, used)
	for _, b := range res.Iter.Blocks {
		id := asg.OwnerOf(b.Base)
		perNode[id] = append(perNode[id], b)
	}

	// Distribution: every element a block reads is preloaded into its
	// node under the block's private key. Charged as one pipelined
	// unicast per node. Block IDs are dense and 1-based, so b.ID-1
	// indexes per-block accounting.
	red := res.Redundant
	dsp := trc.Start(parent, "distribute")
	var bwords []int
	if dsp.OK() {
		bwords = make([]int, len(res.Iter.Blocks))
	}
	var msgs, words int
	var secs float64
	if dsp.OK() {
		mach.SetChargeHook(func(_, m, w int, s float64) { msgs += m; words += w; secs += s })
	}
	for id, blks := range perNode {
		elems := map[string]float64{}
		for _, b := range blks {
			before := len(elems)
			for _, it := range b.Iterations {
				for si, st := range nest.Body {
					if red != nil && red.IsRedundant(si, it) {
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
				bwords[b.ID-1] = len(elems) - before
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

	// Parallel execution against private block copies. The oracle runs
	// one goroutine per node, so worker id == node id in block spans.
	bt := newBlockTrace(trc, parent, len(res.Iter.Blocks))
	err = mach.Run(func(n *machine.Node) error {
		var last time.Duration
		if bt != nil {
			last = bt.tr.Since()
		}
		for _, b := range perNode[n.ID] {
			if err := runOracleBlock(nest, red, n, b, budget, inj, opts.maxRetries()); err != nil {
				return err
			}
			if d := inj.NodeDelayS(n.ID); d > 0 {
				mach.AddComputeSeconds(d)
			}
			if bt != nil {
				now := bt.tr.Since()
				bt.record(b.ID-1, b.ID, n.ID, n.ID, int64(len(b.Iterations)), bwords[b.ID-1], last, now)
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
	// write holds the authoritative copy; gather from its node.
	type ownerInfo struct {
		node  int
		block int
	}
	// Node placement is block-granular (a block runs wholly on the node
	// of its base point): for the coset strategies every iteration of a
	// block projects to the same forall point, so this is identical to
	// per-iteration lookup, but MARS blocks group iterations across
	// forall points and must not be split.
	blockNode := make(map[int]int, len(res.Iter.Blocks))
	for _, b := range res.Iter.Blocks {
		blockNode[b.ID] = asg.OwnerOf(b.Base)
	}
	owner := map[string]ownerInfo{}
	nest.Walk(func(it []int64) bool {
		blk := res.Iter.BlockOf(it).ID
		id := blockNode[blk]
		for si, st := range nest.Body {
			if red != nil && red.IsRedundant(si, it) {
				continue
			}
			owner[Key(st.Write.Array, st.Write.Index(it))] = ownerInfo{node: id, block: blk}
		}
		return true
	})
	final := map[string]float64{}
	for k, o := range owner {
		if v, ok := mach.Node(o.node).Value(BlockKey(o.block, k)); ok {
			final[k] = v
		}
	}
	rep := &Report{
		Machine:    mach,
		Transform:  tr,
		Assignment: asg,
		Final:      final,
	}
	for id := 0; id < used; id++ {
		rep.IterationsPerNode = append(rep.IterationsPerNode, mach.Node(id).Stats().Iterations)
	}
	if inj != nil {
		rep.Chaos = inj.Stats()
	}
	return rep, nil
}

// runOracleBlock executes one block on its node. With no injector it is
// a single pass over the block's iterations; under chaos it becomes a
// bounded retry loop around the same pass, with a checkpoint of the
// block's write-set image taken up front so a crashed attempt's partial
// writes can be rolled back before the re-run.
func runOracleBlock(nest *loop.Nest, red *redundant.Result, n *machine.Node, b *partition.Block, budget *machine.Budget, inj *chaos.Injector, maxRetries int) error {
	scratch := make([]float64, maxReads(nest))
	run := func(count int64) error {
		for _, it := range b.Iterations[:count] {
			if err := budget.Spend(1); err != nil {
				return err
			}
			for si, st := range nest.Body {
				if red != nil && red.IsRedundant(si, it) {
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
		return run(int64(len(b.Iterations)))
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
	for _, it := range b.Iterations {
		for si, st := range nest.Body {
			if red != nil && red.IsRedundant(si, it) {
				continue
			}
			k := BlockKey(b.ID, Key(st.Write.Array, st.Write.Index(it)))
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
				return run(int64(len(b.Iterations)))
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
			if err := run(int64(len(b.Iterations))); err != nil {
				return err
			}
			done = true
		default:
			// Mid-compute crash: a deterministic prefix of the block
			// runs, then the checkpoint rolls its writes back.
			if err := run(inj.Cut(b.ID, attempt, int64(len(b.Iterations)))); err != nil {
				return err
			}
			for i := len(cps) - 1; i >= 0; i-- {
				if cps[i].existed {
					n.Write(cps[i].key, cps[i].val)
				}
			}
		}
		inj.CountRetry()
		if attempt+1 > maxRetries {
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
