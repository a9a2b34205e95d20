package exec

// The dense state. A final array state stays in its program's layout
// from the sequential reference to the verdict: per array, the values
// over the footprint box and a mask of the cells written. The kernel
// compares its arena with a reference cell by cell before the arena
// returns to the pool; the keyed forms ("A[2 1]") the oracle and the
// frozen entry points speak are views built in exec.go.

import "commfree/internal/machine"

// State is a final array state in a program's dense layout: per array,
// its values over the footprint box and the cells that were written.
// Program.Reference produces one, and the verdict of (*Kernel).Validate
// compares a run against it. A State is read-only once built.
type State struct {
	prog    *Program
	vals    [][]float64
	written [][]bool
	n       int // written cells
}

// Reference executes the compiled nest in lexicographic order and
// returns its final state: the sequential reference, bit-identical to
// the map-based Sequential oracle (same initial values, same float64
// operations in the same order). Sequential is its keyed view.
func (p *Program) Reference() *State {
	s := &State{prog: p, vals: p.cloneBuffers(), written: make([][]bool, len(p.arrays))}
	for i, lay := range p.arrays {
		s.written[i] = make([]bool, lay.Volume)
	}
	scratch := make([]float64, p.maxReads)
	pos := 0 // Walk visits the iterations in position order
	p.Nest.Walk(func(it []int64) bool {
		for si := range p.stmts {
			cs := &p.stmts[si]
			if p.isRedundant(si, pos) {
				continue
			}
			vals := scratch[:len(cs.reads)]
			for ri := range cs.reads {
				r := &cs.reads[ri]
				vals[ri] = s.vals[r.Array][r.At(it)]
			}
			off := cs.write.At(it)
			s.vals[cs.write.Array][off] = cs.st.EvalExpr(it, vals)
			s.written[cs.write.Array][off] = true
		}
		pos++
		return true
	})
	for _, w := range s.written {
		for _, ok := range w {
			if ok {
				s.n++
			}
		}
	}
	return s
}

// ownedCell is a cell whose final value a kernel run holds: the block
// performing the element's globally last write commits it.
type ownedCell struct {
	arr int32
	off int64
}

// Validate runs the kernel as Run does but leaves the final state in the
// run's arena: the report's Final is nil. The returned verdict compares
// that state with a reference over the cells the kernel owns, and returns
// the reference's element count and the mismatches, counted as
// Mismatches counts them: missing + differing + surplus, a NaN never
// equal. The verdict recycles the arena, so it is called once.
func (k *Kernel) Validate(cost machine.CostModel, opts Options) (*Report, func(ref *State) (elements, mismatches int), error) {
	mach, ar, err := k.run(cost, opts)
	if err != nil {
		return nil, nil, err
	}
	verdict := func(ref *State) (int, int) {
		n := k.mismatches(ar.bufs, ref)
		k.arenas.Put(ar)
		ar = nil
		return ref.n, n
	}
	return newReport(mach, nil, opts.Chaos), verdict, nil
}

// mismatches compares a run's buffers with ref. A reference of another
// program may lay its arrays out differently; it is compared through the
// keyed views.
func (k *Kernel) mismatches(bufs [][]float64, ref *State) int {
	if ref.prog != k.prog {
		return Mismatches(k.gather(bufs), ref.keyed())
	}
	matched, differing, surplus := 0, 0, 0
	for _, c := range k.owned {
		if !ref.written[c.arr][c.off] {
			surplus++
			continue
		}
		matched++
		if bufs[c.arr][c.off] != ref.vals[c.arr][c.off] {
			differing++
		}
	}
	return ref.n - matched + differing + surplus
}
