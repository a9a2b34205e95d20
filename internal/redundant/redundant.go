// Package redundant implements Section III.C of the paper: detecting and
// eliminating redundant computations, and reclassifying data dependences
// as useful or false afterwards.
//
// A computation S_k(ī) is redundant when the value it writes is
// overwritten by the next write to the same element without having been
// read (Case 1), or having been read only by computations that are
// themselves redundant (Case 2). The paper describes a recursive
// examination; on the finite iteration spaces of the loop model this is a
// monotone fixpoint over the exact event timeline, which this package
// computes directly. Removing the redundant computations can only mark
// more dependences false, never fewer, so the fixpoint is the least one.
package redundant

import (
	"fmt"
	"sort"
	"strings"

	"commfree/internal/deps"
	"commfree/internal/loop"
)

// Result holds the outcome of redundant-computation elimination.
type Result struct {
	Nest *loop.Nest
	// Analysis is the dependence analysis the classification below was
	// made against; nil on a Result from Sweep.
	Analysis *deps.Analysis
	// Index is the nest's dense index the oracle was computed on; the
	// passes that consume the oracle share it.
	Index *loop.Index

	// bits[s] marks the redundant iterations of statement s, indexed by
	// iteration position (loop.Index.Points order).
	bits  [][]uint64
	count int

	// UsefulDeps are the dependences that survive (Val sets intersect).
	UsefulDeps []*deps.Dependence
	// FalseDeps are dependences invalidated by redundant-computation
	// removal (Val(a,S) ∩ Val(b,S') = ∅).
	FalseDeps []*deps.Dependence
}

// Eliminate runs the elimination on the analysis' nest.
func Eliminate(a *deps.Analysis) (*Result, error) {
	ix, err := loop.NewIndex(a.Nest)
	if err != nil {
		return nil, err
	}
	return EliminateOn(a, ix), nil
}

// EliminateOn is Eliminate on an index of the nest the caller already
// holds: the sweep's bits plus the useful/false classification of the
// analysis' dependences.
func EliminateOn(a *deps.Analysis, ix *loop.Index) *Result {
	res := Sweep(ix)
	res.Analysis = a
	res.classifyDeps()
	return res
}

// Sweep computes the redundancy bits from the index alone — no
// dependence analysis, so Analysis, UsefulDeps and FalseDeps stay empty.
// It is all a consumer of RedundantAt needs (the verifier, the
// executors, a plan revived from its record).
//
// Whether S_k(ī) is redundant depends only on computations that execute
// strictly later (the readers of the value it writes), so one sweep over
// the accesses in reverse execution order reaches the fixpoint: per
// element it remembers whether a later write exists and whether a
// non-redundant read has been seen since. The work is the same on every
// run — one pass, no map iteration.
func Sweep(ix *loop.Index) *Result {
	stmts := len(ix.Nest.Body)
	res := &Result{Nest: ix.Nest, Index: ix, bits: make([][]uint64, stmts)}
	words := (len(ix.Points) + 63) / 64
	for s := range res.bits {
		res.bits[s] = make([]uint64, words)
	}
	const laterWrite, liveRead = 1, 2
	state := make([]uint8, ix.NumElems())
	for pos := len(ix.Points) - 1; pos >= 0; pos-- {
		row := ix.Row(pos)
		for s := stmts - 1; s >= 0; s-- {
			w := ix.First[s+1] - 1
			redundant := state[row[w]] == laterWrite
			state[row[w]] = laterWrite
			if redundant {
				res.bits[s][pos>>6] |= 1 << uint(pos&63)
				res.count++
				continue
			}
			for _, e := range row[ix.First[s]:w] {
				state[e] |= liveRead
			}
		}
	}
	return res
}

// RedundantAt reports whether statement stmt is redundant at the
// iteration with the given position in Index.Points.
func (r *Result) RedundantAt(stmt, pos int) bool {
	return r.bits[stmt][pos>>6]&(1<<uint(pos&63)) != 0
}

// IsRedundant reports whether computation S_stmt(ī) is redundant.
func (r *Result) IsRedundant(stmt int, iter []int64) bool {
	pos := r.Index.Pos(iter)
	return pos >= 0 && r.RedundantAt(stmt, pos)
}

// NonRedundant returns N(S_stmt): the iterations at which the statement is
// not redundant, in lexicographic order.
func (r *Result) NonRedundant(stmt int) [][]int64 {
	var out [][]int64
	for pos, it := range r.Index.Points {
		if !r.RedundantAt(stmt, pos) {
			out = append(out, it)
		}
	}
	return out
}

// NumRedundant counts redundant computations across all statements.
func (r *Result) NumRedundant() int { return r.count }

// slotOf locates an access among the index's slots.
func (r *Result) slotOf(acc deps.Access) int {
	if acc.IsWrite {
		return r.Index.First[acc.Stmt+1] - 1
	}
	return r.Index.First[acc.Stmt] + acc.ReadIdx
}

// classifyDeps splits the analysis' dependences into useful and false by
// the Val-intersection criterion.
func (r *Result) classifyDeps() {
	mark := make([]int32, r.Index.NumElems())
	for di, d := range r.Analysis.AllDependences() {
		src, dst, stamp := r.slotOf(d.Src), r.slotOf(d.Dst), int32(di+1)
		for pos := range r.Index.Points {
			if !r.RedundantAt(d.Src.Stmt, pos) {
				mark[r.Index.Row(pos)[src]] = stamp
			}
		}
		useful := false
		for pos := 0; pos < len(r.Index.Points) && !useful; pos++ {
			useful = !r.RedundantAt(d.Dst.Stmt, pos) && mark[r.Index.Row(pos)[dst]] == stamp
		}
		if useful {
			r.UsefulDeps = append(r.UsefulDeps, d)
		} else {
			r.FalseDeps = append(r.FalseDeps, d)
		}
	}
}

// UsefulDepsOf returns the useful dependences of one array.
func (r *Result) UsefulDepsOf(array string) []*deps.Dependence {
	var out []*deps.Dependence
	for _, d := range r.UsefulDeps {
		if d.Array == array {
			out = append(out, d)
		}
	}
	return out
}

// Summary renders a human-readable elimination report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "redundant computations: %d of %d\n",
		r.NumRedundant(), len(r.Index.Points)*len(r.Nest.Body))
	for si := range r.Nest.Body {
		n := r.NonRedundant(si)
		fmt.Fprintf(&b, "  N(S%d): %d iterations\n", si+1, len(n))
	}
	var useful, false_ []string
	for _, d := range r.UsefulDeps {
		useful = append(useful, d.String())
	}
	for _, d := range r.FalseDeps {
		false_ = append(false_, d.String())
	}
	sort.Strings(useful)
	sort.Strings(false_)
	fmt.Fprintf(&b, "useful dependences (%d):\n", len(useful))
	for _, s := range useful {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	fmt.Fprintf(&b, "false dependences (%d):\n", len(false_))
	for _, s := range false_ {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}
