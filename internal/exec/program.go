package exec

// The dense program. CompileNest resolves a nest, once, into the form
// the kernel engine lowers from (Specialize) and the dense sequential
// reference runs on, with no per-iteration allocation:
//
//   - every array gets a dense row-major []float64 buffer covering the
//     bounding box of its footprint over the iteration space, replacing
//     the fmt.Sprint-keyed element maps;
//   - every reference's affine index function H·ī + c̄ is composed with
//     the buffer linearization into a single base+stride offset
//     function off(ī) = base + Σ coeffs[j]·ī[j];
//   - redundant computations (Section III.C) are pre-resolved into
//     per-statement bitsets indexed by the iteration's rank in the
//     bounding box of the iteration space, so the hot loop tests a bit
//     instead of formatting a map key.
//
// The map-based Sequential/Parallel stay as the reference oracle; the
// differential tests prove Program.Sequential and the kernel produce
// bit-identical final state on every nest.

import (
	"fmt"
	"strconv"

	"commfree/internal/loop"
	"commfree/internal/redundant"
)

// Compile caps: a dense footprint is only worth it while it fits in
// memory. Nests beyond these bounds fail CompileNest with a descriptive
// error and callers fall back to the map-based oracle. Variables, not
// constants, so the overflow paths are testable without gigabyte nests.
var (
	// maxArrayCells bounds one array's bounding-box volume (128 MiB of
	// float64 per array).
	maxArrayCells int64 = 1 << 24
	// maxTotalCells bounds the sum over arrays (512 MiB of float64).
	maxTotalCells int64 = 1 << 26
	// maxRankedBits bounds Σ statements × iteration-box volume, the
	// total redundancy-bitset size (128 MiB of bits).
	maxRankedBits int64 = 1 << 30
)

// arrayLayout is the dense storage plan of one array: a row-major box
// covering every element any reference touches over the iteration
// space (holes from strided references are simply never read).
type arrayLayout struct {
	name    string
	lo      []int64   // per-dimension lower corner of the box
	ext     []int64   // per-dimension extent
	strides []int64   // row-major strides
	size    int64     // ∏ ext
	init    []float64 // InitValue image of the box
}

// eachIndex runs fn over every box cell in offset order, passing the
// absolute data-space index (the slice is reused between calls).
func (a *arrayLayout) eachIndex(fn func(off int64, idx []int64)) {
	if a.size == 0 {
		return
	}
	d := len(a.ext)
	idx := make([]int64, d)
	copy(idx, a.lo)
	for off := int64(0); off < a.size; off++ {
		fn(off, idx)
		for k := d - 1; k >= 0; k-- {
			idx[k]++
			if idx[k] < a.lo[k]+a.ext[k] {
				break
			}
			idx[k] = a.lo[k]
		}
	}
}

// linRef is a reference compiled to a linear offset function over the
// iteration point: off(ī) = base + Σ coeffs[j]·ī[j].
type linRef struct {
	array  int // index into Program.arrays
	base   int64
	coeffs []int64
}

func (r *linRef) offset(it []int64) int64 {
	off := r.base
	for j, c := range r.coeffs {
		off += c * it[j]
	}
	return off
}

// compiledStmt pairs the linearized references with the statement
// (for its right-hand side).
type compiledStmt struct {
	write linRef
	reads []linRef
	st    *loop.Statement
}

// Program is a loop nest resolved to dense storage: the footprint
// layouts, the rank-indexed redundancy bitsets, the sequential
// reference (Sequential), and the input Specialize lowers from. It is
// read-only after CompileNest and safe for concurrent use.
type Program struct {
	Nest *loop.Nest
	Red  *redundant.Result

	arrays   []*arrayLayout
	stmts    []compiledStmt
	iters    int64 // exact iteration count
	maxReads int

	// Rank encoding: rank(ī) is the mixed-radix position of ī inside
	// the bounding box of the iteration space. It preserves
	// lexicographic order, so "globally later computation" reduces to
	// comparing integers — the dense replacement for walking the whole
	// space to find each element's last writer.
	iterLo     []int64
	iterRadix  []int64
	iterVolume int64

	// redundantBits[si] marks the redundant iterations of statement si,
	// indexed by rank. Nil when no elimination is in force.
	redundantBits [][]uint64
}

// rankOf returns the lexicographic-order-preserving rank of an
// iteration point (valid only for points inside the walked space).
func (p *Program) rankOf(it []int64) int64 {
	var r int64
	for k, radix := range p.iterRadix {
		r += (it[k] - p.iterLo[k]) * radix
	}
	return r
}

// isRedundant reports whether computation S_si(ī) was eliminated.
func (p *Program) isRedundant(si int, it []int64) bool {
	if p.redundantBits == nil {
		return false
	}
	r := p.rankOf(it)
	return p.redundantBits[si][r>>6]&(1<<uint(r&63)) != 0
}

// CompileNest compiles a validated nest (with optional redundant-
// computation elimination) for dense execution. The result is shared
// freely across goroutines.
func CompileNest(nest *loop.Nest, red *redundant.Result) (*Program, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	p := &Program{Nest: nest, Red: red}
	n := nest.Depth()

	// Array inventory, in sorted name order.
	names := nest.Arrays()
	arrayIdx := make(map[string]int, len(names))
	for i, name := range names {
		arrayIdx[name] = i
		p.arrays = append(p.arrays, &arrayLayout{name: name})
	}

	// Flatten the statement references once so the footprint pass can
	// evaluate them without walking the AST shape.
	type rawRef struct {
		array int
		h     [][]int64
		off   []int64
	}
	var refs []rawRef
	for _, st := range nest.Body {
		if len(st.Reads) > p.maxReads {
			p.maxReads = len(st.Reads)
		}
		for _, r := range append([]loop.Ref{st.Write}, st.Reads...) {
			refs = append(refs, rawRef{array: arrayIdx[r.Array], h: r.H, off: r.Offset})
		}
	}

	// Footprint pass: one streaming walk of the iteration space,
	// tracking per-array per-dimension extremes of every reference, the
	// per-level index ranges, and the iteration count. Redundant
	// iterations are included — covering more box than strictly needed
	// costs memory, never correctness.
	type minMax struct {
		seen   bool
		lo, hi []int64
	}
	arrMM := make([]minMax, len(names))
	lvlLo := make([]int64, n)
	lvlHi := make([]int64, n)
	nest.Walk(func(it []int64) bool {
		if p.iters == 0 {
			copy(lvlLo, it)
			copy(lvlHi, it)
		} else {
			for k, v := range it {
				if v < lvlLo[k] {
					lvlLo[k] = v
				}
				if v > lvlHi[k] {
					lvlHi[k] = v
				}
			}
		}
		p.iters++
		for _, r := range refs {
			mm := &arrMM[r.array]
			if !mm.seen {
				mm.seen = true
				mm.lo = make([]int64, len(r.off))
				mm.hi = make([]int64, len(r.off))
				for d := range r.off {
					mm.lo[d] = 1<<62 - 1
					mm.hi[d] = -(1<<62 - 1)
				}
			}
			for d := range r.h {
				v := r.off[d]
				for j, c := range r.h[d] {
					v += c * it[j]
				}
				if v < mm.lo[d] {
					mm.lo[d] = v
				}
				if v > mm.hi[d] {
					mm.hi[d] = v
				}
			}
		}
		return true
	})

	// Build the layouts and pre-fill the initial values.
	var totalCells int64
	for i, lay := range p.arrays {
		mm := &arrMM[i]
		if !mm.seen || p.iters == 0 {
			continue // never referenced, or empty space: zero-size box
		}
		d := len(mm.lo)
		lay.lo = mm.lo
		lay.ext = make([]int64, d)
		lay.strides = make([]int64, d)
		lay.size = 1
		for k := 0; k < d; k++ {
			lay.ext[k] = mm.hi[k] - mm.lo[k] + 1
		}
		for k := d - 1; k >= 0; k-- {
			lay.strides[k] = lay.size
			lay.size *= lay.ext[k]
			if lay.size > maxArrayCells {
				return nil, fmt.Errorf("exec: array %s footprint %v exceeds %d dense cells", lay.name, lay.ext, maxArrayCells)
			}
		}
		totalCells += lay.size
		if totalCells > maxTotalCells {
			return nil, fmt.Errorf("exec: combined array footprint exceeds %d dense cells", maxTotalCells)
		}
		lay.init = make([]float64, lay.size)
		lay.eachIndex(func(off int64, idx []int64) {
			lay.init[off] = InitValue(lay.name, idx)
		})
	}

	// Linearize every reference against its layout.
	p.iterLo = lvlLo
	p.iterRadix = make([]int64, n)
	p.iterVolume = 1
	if p.iters > 0 {
		for k := n - 1; k >= 0; k-- {
			p.iterRadix[k] = p.iterVolume
			p.iterVolume *= lvlHi[k] - lvlLo[k] + 1
			if p.iterVolume > maxRankedBits {
				return nil, fmt.Errorf("exec: iteration box volume exceeds %d", int64(maxRankedBits))
			}
		}
	} else {
		p.iterVolume = 0
	}
	for _, st := range nest.Body {
		cs := compiledStmt{st: st, write: p.linearize(st.Write, arrayIdx)}
		for _, r := range st.Reads {
			cs.reads = append(cs.reads, p.linearize(r, arrayIdx))
		}
		p.stmts = append(p.stmts, cs)
	}

	// Redundancy bitsets: resolve IsRedundant once per (statement,
	// iteration) at compile time so the hot loop never formats a key.
	if red != nil {
		if v := p.iterVolume * int64(len(p.stmts)); v > maxRankedBits {
			return nil, fmt.Errorf("exec: redundancy bitsets would need %d bits, cap %d", v, int64(maxRankedBits))
		}
		words := (p.iterVolume + 63) / 64
		p.redundantBits = make([][]uint64, len(p.stmts))
		for si := range p.stmts {
			p.redundantBits[si] = make([]uint64, words)
		}
		nest.Walk(func(it []int64) bool {
			r := p.rankOf(it)
			for si := range p.stmts {
				if red.IsRedundant(si, it) {
					p.redundantBits[si][r>>6] |= 1 << uint(r&63)
				}
			}
			return true
		})
	}
	return p, nil
}

// linearize composes a reference with its array's buffer layout.
func (p *Program) linearize(r loop.Ref, arrayIdx map[string]int) linRef {
	ai := arrayIdx[r.Array]
	lay := p.arrays[ai]
	lr := linRef{array: ai, coeffs: make([]int64, p.Nest.Depth())}
	if lay.size == 0 {
		return lr // empty space: never evaluated
	}
	for d := range r.H {
		lr.base += (r.Offset[d] - lay.lo[d]) * lay.strides[d]
		for j, c := range r.H[d] {
			lr.coeffs[j] += c * lay.strides[d]
		}
	}
	return lr
}

// appendKey formats Key(name, idx) into dst without fmt — the gather
// loops build one key per written element, and fmt.Sprint would
// dominate the allocation profile. The output must
// stay byte-identical to Key (the differential tests compare final
// states across engines by these strings).
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

// cloneBuffers returns a fresh working copy of every array buffer,
// pre-filled with the deterministic initial values.
func (p *Program) cloneBuffers() [][]float64 {
	bufs := make([][]float64, len(p.arrays))
	for i, lay := range p.arrays {
		bufs[i] = make([]float64, lay.size)
		copy(bufs[i], lay.init)
	}
	return bufs
}

// Sequential executes the compiled nest in lexicographic order and
// returns the final array state (written elements only), bit-identical
// to the map-based Sequential oracle: same initial values, same float64
// operations in the same order.
func (p *Program) Sequential() map[string]float64 {
	bufs := p.cloneBuffers()
	written := make([][]bool, len(p.arrays))
	for i, lay := range p.arrays {
		written[i] = make([]bool, lay.size)
	}
	scratch := make([]float64, p.maxReads)
	p.Nest.Walk(func(it []int64) bool {
		for si := range p.stmts {
			cs := &p.stmts[si]
			if p.isRedundant(si, it) {
				continue
			}
			vals := scratch[:len(cs.reads)]
			for ri := range cs.reads {
				r := &cs.reads[ri]
				vals[ri] = bufs[r.array][r.offset(it)]
			}
			off := cs.write.offset(it)
			bufs[cs.write.array][off] = cs.st.EvalExpr(it, vals)
			written[cs.write.array][off] = true
		}
		return true
	})
	count := 0
	for i := range p.arrays {
		for _, ok := range written[i] {
			if ok {
				count++
			}
		}
	}
	final := make(map[string]float64, count)
	var kb []byte
	for i, lay := range p.arrays {
		w := written[i]
		lay.eachIndex(func(off int64, idx []int64) {
			if w[off] {
				kb = appendKey(kb, lay.name, idx)
				final[string(kb)] = bufs[i][off]
			}
		})
	}
	return final
}
