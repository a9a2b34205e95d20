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
//   - an iteration is its position in lexicographic order, the
//     coordinate of the partition's Index: a redundant computation
//     (Section III.C) is a bit of the oracle at (statement, position), a
//     later computation is a larger (position, statement).
//
// The map-based Sequential/Parallel stay as the reference oracle; the
// differential tests prove Program.Sequential and the kernel produce
// bit-identical final state on every nest.

import (
	"fmt"

	"commfree/internal/loop"
	"commfree/internal/partition"
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
)

// arrayLayout is the dense storage plan of one array: a row-major box
// covering every element any reference touches over the iteration
// space (holes from strided references are simply never read). An
// element's buffer offset is its rank in the box.
type arrayLayout struct {
	name string
	loop.Ranker
	init []float64 // InitValue image of the box
}

// eachIndex runs fn over every box cell in offset order, passing the
// absolute data-space index (the slice is reused between calls).
func (a *arrayLayout) eachIndex(fn func(off int64, idx []int64)) {
	idx := make([]int64, len(a.Lo))
	for off := int64(0); off < a.Volume; off++ {
		fn(off, a.Unrank(off, idx))
	}
}

// compiledStmt pairs the references, each resolved to a linear buffer
// offset function of the iteration point, with the statement (for its
// right-hand side).
type compiledStmt struct {
	write loop.Slot
	reads []loop.Slot
	st    *loop.Statement
}

// Program is a loop nest resolved to dense storage: the footprint
// layouts, the sequential reference (Sequential), and the input
// Specialize lowers from. It is read-only after compilation and safe
// for concurrent use.
type Program struct {
	Nest *loop.Nest
	Red  *redundant.Result // nil when no elimination is in force

	arrays   []*arrayLayout
	stmts    []compiledStmt
	maxReads int
}

// isRedundant reports whether statement si was eliminated at the
// iteration with the given position in lexicographic order.
func (p *Program) isRedundant(si, pos int) bool {
	return p.Red != nil && p.Red.RedundantAt(si, pos)
}

// CompileNest compiles a validated nest (with optional redundant-
// computation elimination) for dense execution. The footprint is the
// redundancy oracle's when there is one, else one streaming walk of the
// nest; a caller that holds the nest's partition uses CompilePartition,
// which walks nothing.
func CompileNest(nest *loop.Nest, red *redundant.Result) (*Program, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	if red != nil && red.Nest == nest {
		return compile(nest, red, red.Index.Footprint)
	}
	fp, err := nest.Footprint()
	if err != nil {
		return nil, err
	}
	return compile(nest, red, fp)
}

// CompilePartition compiles the nest of a partition from the footprint
// its Index already holds.
func CompilePartition(res *partition.Result) (*Program, error) {
	return compile(res.Iter.Nest, res.Redundant, res.Iter.Index.Footprint)
}

// compile lays the nest out on its footprint — per-array element boxes,
// every reference composed with its box's ranking. Redundant iterations
// are included: covering more box than strictly needed costs memory,
// never correctness.
func compile(nest *loop.Nest, red *redundant.Result, fp *loop.Footprint) (*Program, error) {
	p := &Program{Nest: nest, Red: red, maxReads: maxReads(nest)}
	var totalCells int64
	for i, name := range fp.Arrays {
		lay := &arrayLayout{name: name, Ranker: fp.Elems[i]}
		if lay.Volume > maxArrayCells {
			return nil, fmt.Errorf("exec: array %s footprint %v exceeds %d dense cells", name, lay.Ext, maxArrayCells)
		}
		if totalCells += lay.Volume; totalCells > maxTotalCells {
			return nil, fmt.Errorf("exec: combined array footprint exceeds %d dense cells", maxTotalCells)
		}
		lay.init = make([]float64, lay.Volume)
		lay.eachIndex(func(off int64, idx []int64) {
			lay.init[off] = InitValue(name, idx)
		})
		p.arrays = append(p.arrays, lay)
	}
	for si, st := range nest.Body {
		w := fp.First[si+1] - 1
		p.stmts = append(p.stmts, compiledStmt{st: st, write: fp.Slots[w], reads: fp.Slots[fp.First[si]:w]})
	}
	return p, nil
}

// cloneBuffers returns a fresh working copy of every array buffer,
// pre-filled with the deterministic initial values.
func (p *Program) cloneBuffers() [][]float64 {
	bufs := make([][]float64, len(p.arrays))
	for i, lay := range p.arrays {
		bufs[i] = make([]float64, lay.Volume)
		copy(bufs[i], lay.init)
	}
	return bufs
}
