package loop

// The one ranking of integer points. Every layer that keys on an
// iteration or an array element — the redundancy oracle, the partition
// and its verifier, MARS, the distribution planner, the dense executor —
// uses the lexicographic mixed-radix rank defined here, not a formatted
// string: a Ranker packs a point of a box into an order-preserving
// int64, a Footprint holds the boxes of one nest with every reference
// composed into a linear rank function, and an Index adds the enumerated
// iterations and a dense numbering of the touched elements, so the
// compile passes run over flat arrays.

import (
	"fmt"
	"math/bits"
	"slices"

	"commfree/internal/machine"
)

// RankOverflowError reports a box too large to rank in an int64.
type RankOverflowError struct{ What string }

func (e *RankOverflowError) Error() string {
	return "loop: " + e.What + " overflows the int64 rank range"
}

// Ranker ranks the points of the integer box [Lo, Lo+Ext) in
// lexicographic order: Rank(a) < Rank(b) exactly when a precedes b.
type Ranker struct {
	Lo, Ext, Radix []int64
	Volume         int64 // ∏ Ext: the number of ranks, 0 for an empty box
}

// NewRanker ranks the box with inclusive corners lo and hi (named what in
// the overflow error). A box with some hi < lo is empty, not an error.
func NewRanker(what string, lo, hi []int64) (Ranker, error) {
	r := Ranker{Lo: lo, Ext: make([]int64, len(lo)), Radix: make([]int64, len(lo)), Volume: 1}
	for k := len(lo) - 1; k >= 0; k-- {
		ext := hi[k] - lo[k] + 1
		if hi[k] < lo[k] {
			ext = 0
		} else if ext <= 0 {
			return Ranker{}, &RankOverflowError{What: what}
		}
		over, vol := bits.Mul64(uint64(r.Volume), uint64(ext))
		if over != 0 || vol > 1<<63-1 {
			return Ranker{}, &RankOverflowError{What: what}
		}
		r.Ext[k], r.Radix[k], r.Volume = ext, r.Volume, int64(vol)
	}
	return r, nil
}

// Contains reports whether the point lies inside the box.
func (r Ranker) Contains(pt []int64) bool {
	for k, lo := range r.Lo {
		if pt[k] < lo || pt[k]-lo >= r.Ext[k] {
			return false
		}
	}
	return true
}

// Rank returns the rank of a point of the box.
func (r Ranker) Rank(pt []int64) int64 {
	var rank int64
	for k, radix := range r.Radix {
		rank += (pt[k] - r.Lo[k]) * radix
	}
	return rank
}

// Unrank writes the point of the given rank into dst and returns it.
func (r Ranker) Unrank(rank int64, dst []int64) []int64 {
	for k, radix := range r.Radix {
		dst[k] = r.Lo[k] + rank/radix
		rank %= radix
	}
	return dst
}

// Linear is a rank as an affine function of the iteration point:
// Base + Σ Coeffs[j]·ī[j]. Intermediate products may wrap; the result is
// exact whenever the true rank fits, which its Ranker guarantees.
type Linear struct {
	Base   int64
	Coeffs []int64
}

// At evaluates the function at an iteration point.
func (l Linear) At(it []int64) int64 {
	v := l.Base
	for j, c := range l.Coeffs {
		v += c * it[j]
	}
	return v
}

// Compose returns the rank of the point H·ī + off as a function of ī
// (n is the iteration depth).
func (r Ranker) Compose(n int, h [][]int64, off []int64) Linear {
	l := Linear{Coeffs: make([]int64, n)}
	for d, radix := range r.Radix {
		l.Base += (off[d] - r.Lo[d]) * radix
		for j, c := range h[d] {
			l.Coeffs[j] += c * radix
		}
	}
	return l
}

// Slot is one access position of the loop body, resolved against its
// array's box: the touched element's rank is a linear function of the
// iteration point.
type Slot struct {
	Stmt  int
	Write bool
	Array int // index into Footprint.Arrays
	Linear
}

// Footprint is the integer shape of one nest: the bounding box of its
// iteration space, the bounding box of every array's touched elements,
// and each reference composed with its array's ranking.
type Footprint struct {
	Iter   Ranker   // over the iteration bounding box
	Count  int64    // exact number of iterations
	Arrays []string // sorted names
	Elems  []Ranker // per array, over the box of its referenced elements
	// Slots are the accesses of one iteration in execution order: per
	// statement its reads, then its write. Statement s reads
	// Slots[First[s]:First[s+1]−1] and writes Slots[First[s+1]−1].
	Slots []Slot
	First []int
}

// Footprint bounds the iteration space and every reference. When every
// level has constant, non-empty bounds the iteration box is the bounds
// and each reference's box follows from interval arithmetic: an affine
// map on a box attains its extremes at corners, and every corner is an
// iteration. Otherwise it walks the iteration space once (walkFootprint).
func (l *Nest) Footprint() (*Footprint, error) {
	f, refs, bx := l.newFootprint()
	blo, bhi, closed := l.ConstBounds()
	for k := range blo {
		closed = closed && blo[k] <= bhi[k]
	}
	if !closed {
		return l.walkFootprint(f, refs, bx)
	}
	iter := len(f.Arrays)
	bx.lo[iter], bx.hi[iter] = blo, bhi
	for i, r := range refs {
		a := f.Slots[i].Array
		for d, row := range r.H {
			vlo, vhi, ok := affineRange(row, r.Offset[d], blo, bhi)
			if !ok {
				return nil, &RankOverflowError{What: f.elemsWhat(a)}
			}
			bx.grow(a, d, vlo)
			bx.grow(a, d, vhi)
		}
	}
	if err := f.rank(refs, bx); err != nil {
		return nil, err
	}
	f.Count = f.Iter.Volume
	return f, nil
}

// walkFootprint completes Footprint by walking the iteration space once,
// counting the iterations and tracking the extremes of every index level
// and every reference.
func (l *Nest) walkFootprint(f *Footprint, refs []Ref, bx footprintBoxes) (*Footprint, error) {
	iter := len(f.Arrays)
	l.Walk(func(it []int64) bool {
		f.Count++
		for k, v := range it {
			bx.grow(iter, k, v)
		}
		for i, r := range refs {
			for d, row := range r.H {
				v := r.Offset[d]
				for j, c := range row {
					v += c * it[j]
				}
				bx.grow(f.Slots[i].Array, d, v)
			}
		}
		return true
	})
	if err := f.rank(refs, bx); err != nil {
		return nil, err
	}
	return f, nil
}

// footprintBoxes are the bounding boxes Footprint grows: boxes
// 0..len(Arrays)−1 belong to the arrays, the last one to the iteration
// space itself.
type footprintBoxes struct{ lo, hi [][]int64 }

func (bx footprintBoxes) grow(b, k int, v int64) {
	bx.lo[b][k], bx.hi[b][k] = min(bx.lo[b][k], v), max(bx.hi[b][k], v)
}

// newFootprint lays out the slots of l's references and empty boxes for
// the arrays and the iteration space.
func (l *Nest) newFootprint() (*Footprint, []Ref, footprintBoxes) {
	f := &Footprint{Arrays: l.Arrays()}
	var refs []Ref
	for s, st := range l.Body {
		f.First = append(f.First, len(refs))
		for _, r := range append(st.Reads[:len(st.Reads):len(st.Reads)], st.Write) {
			a, _ := slices.BinarySearch(f.Arrays, r.Array)
			f.Slots = append(f.Slots, Slot{Stmt: s, Array: a})
			refs = append(refs, r)
		}
		f.Slots[len(refs)-1].Write = true
	}
	f.First = append(f.First, len(refs))

	iter := len(f.Arrays)
	bx := footprintBoxes{make([][]int64, iter+1), make([][]int64, iter+1)}
	newBox := func(b, d int) {
		bx.lo[b], bx.hi[b] = make([]int64, d), make([]int64, d)
		for k := range bx.lo[b] {
			bx.lo[b][k], bx.hi[b][k] = 1<<63-1, -1<<63
		}
	}
	newBox(iter, l.Depth())
	for i, r := range refs {
		newBox(f.Slots[i].Array, r.Dim())
	}
	return f, refs, bx
}

func (f *Footprint) elemsWhat(a int) string { return "array " + f.Arrays[a] + " footprint" }

// rank turns the grown boxes into f's rankers and composes every
// reference with its array's ranking.
func (f *Footprint) rank(refs []Ref, bx footprintBoxes) error {
	iter := len(f.Arrays)
	var err error
	if f.Iter, err = NewRanker("iteration box", bx.lo[iter], bx.hi[iter]); err != nil {
		return err
	}
	f.Elems = make([]Ranker, len(f.Arrays))
	for a := range f.Arrays {
		if f.Elems[a], err = NewRanker(f.elemsWhat(a), bx.lo[a], bx.hi[a]); err != nil {
			return err
		}
	}
	for i, r := range refs {
		f.Slots[i].Linear = f.Elems[f.Slots[i].Array].Compose(len(f.Iter.Lo), r.H, r.Offset)
	}
	return nil
}

// affineRange returns the extremes of c + Σ coeffs[j]·x[j] over the box
// lo ≤ x ≤ hi, or ok = false when a value on the way overflows int64.
func affineRange(coeffs []int64, c int64, lo, hi []int64) (vlo, vhi int64, ok bool) {
	vlo, vhi, ok = c, c, true
	for j, a := range coeffs {
		x, y := lo[j], hi[j]
		if a < 0 {
			x, y = y, x
		}
		vlo, ok = addMul(vlo, a, x, ok)
		vhi, ok = addMul(vhi, a, y, ok)
	}
	return vlo, vhi, ok
}

// addMul returns s + a·x and whether ok held and nothing overflowed.
func addMul(s, a, x int64, ok bool) (int64, bool) {
	if a == 0 || x == 0 {
		return s, ok
	}
	p := a * x
	if p/x != a || x == -1 && a == -1<<63 {
		return 0, false
	}
	sum := s + p
	return sum, ok && (p >= 0) == (sum >= s)
}

// Index is a nest enumerated once for the compile passes: the iteration
// points in lexicographic order (a point's position in that order is
// its dense rank) and, for every access of every iteration, the dense id
// of the element it touches. Ids number the distinct touched elements
// in order of first touch. An Index is immutable after NewIndex.
type Index struct {
	*Footprint
	Nest   *Nest
	Points [][]int64 // Points[pos] is iteration number pos

	ranks    []int64 // Iter.Rank(Points[pos]), ascending
	elem     []int32 // len(Points)·len(Slots) element ids
	elemSlot []int32 // id → a slot that touches it (its array)
	elemRank []int64 // id → rank inside Elems[array]
}

// idTableRatio picks how an array's element ids are looked up while
// NewIndex numbers them: a table indexed by the element's rank when the
// array's box has at most this many cells per access of the nest to it,
// a map otherwise. Only rank-deficient subscripts (A[i, i] in a one-deep
// loop: N² cells for N accesses) take the map.
const idTableRatio = 4

// DefaultMaxIterations is the iteration limit every compile runs under
// unless its caller sets another: the library and the command line
// always, the service by default.
const DefaultMaxIterations = 1 << 22

// Admit refuses a nest that spans more than limit iterations; a negative
// limit admits every nest. It runs before the two places that enumerate
// one — the compile pipeline's analysis, NewIndex in a store revival —
// because those allocate per iteration and heed no context: a 60-byte
// program can name 10¹⁰ iterations. Constant bounds are multiplied out
// (a box too large to rank is too large), outermost first and only down
// to an empty level: that is what a walk of the nest steps through, even
// when it then finds no iteration. Dependent bounds count the walk's
// steps, every value any level takes, because a level can be empty under
// every outer value (for i = 1 to 10⁸ / for j = i to 0). With the
// levels inside level k pinned to one value, the nest has one point per
// value level k takes; that nest is walked for each k, outermost first,
// and the points summed stop the walk at the limit. The refusal wraps
// machine.ErrBudgetExhausted.
func (l *Nest) Admit(limit int64) error {
	if limit < 0 {
		return nil
	}
	over := false
	if lo, hi, ok := l.ConstBounds(); ok {
		k := 0
		for k < len(lo) && lo[k] <= hi[k] {
			k++
		}
		box, err := NewRanker("iteration box", lo[:k], hi[:k])
		over = err != nil || box.Volume > limit
	} else {
		n := l.Depth()
		pinned := &Nest{Levels: make([]Level, n)}
		for k := range pinned.Levels {
			pinned.Levels[k] = Level{Lower: ConstAffine(n, 0), Upper: ConstAffine(n, 0)}
		}
		var steps int64
		for k := 0; k < n && !over; k++ {
			pinned.Levels[k] = l.Levels[k]
			over = !pinned.Walk(func([]int64) bool { steps++; return steps <= limit })
		}
	}
	if over {
		return fmt.Errorf("loop: nest spans more than %d iterations: %w", limit, machine.ErrBudgetExhausted)
	}
	return nil
}

// NewIndex enumerates the nest.
func NewIndex(nest *Nest) (*Index, error) {
	return newIndex(nest, func(cells, accesses int64) bool { return cells <= idTableRatio*accesses })
}

// newIndex is NewIndex with the lookup choice as a predicate over an
// array's box volume and its access count. Both lookups number elements
// in first-touch order, so the choice never changes an id.
func newIndex(nest *Nest, table func(cells, accesses int64) bool) (*Index, error) {
	f, err := nest.Footprint()
	if err != nil {
		return nil, err
	}
	n := nest.Depth()
	ix := &Index{
		Footprint: f, Nest: nest,
		Points: make([][]int64, 0, f.Count),
		ranks:  make([]int64, 0, f.Count),
		elem:   make([]int32, 0, f.Count*int64(len(f.Slots))),
	}
	flat := make([]int64, f.Count*int64(n))
	// Per array, either a rank-indexed table holding id+1 (0: not yet
	// touched) or a map from rank to id.
	tables := make([][]int32, len(f.Arrays))
	maps := make([]map[int64]int32, len(f.Arrays))
	accesses := make([]int64, len(f.Arrays))
	for _, sl := range f.Slots {
		accesses[sl.Array] += f.Count
	}
	var cells int64 // elements of the tabled arrays: at most every cell
	for a, box := range f.Elems {
		if table(box.Volume, accesses[a]) {
			tables[a] = make([]int32, box.Volume)
			cells += min(box.Volume, accesses[a])
		} else {
			maps[a] = map[int64]int32{}
		}
	}
	ix.elemSlot, ix.elemRank = make([]int32, 0, cells), make([]int64, 0, cells)
	fresh := func(s int, rank int64) int32 {
		ix.elemSlot = append(ix.elemSlot, int32(s))
		ix.elemRank = append(ix.elemRank, rank)
		return int32(len(ix.elemRank) - 1)
	}
	nest.Walk(func(it []int64) bool {
		pt := flat[:n:n]
		flat = flat[n:]
		copy(pt, it)
		ix.Points = append(ix.Points, pt)
		ix.ranks = append(ix.ranks, f.Iter.Rank(it))
		for s, sl := range f.Slots {
			rank := sl.At(it)
			var id int32
			if tab := tables[sl.Array]; tab != nil {
				if id = tab[rank] - 1; id < 0 {
					id = fresh(s, rank)
					tab[rank] = id + 1
				}
			} else {
				var ok bool
				if id, ok = maps[sl.Array][rank]; !ok {
					id = fresh(s, rank)
					maps[sl.Array][rank] = id
				}
			}
			ix.elem = append(ix.elem, id)
		}
		return true
	})
	return ix, nil
}

// Pos returns the position of an iteration point in lexicographic
// order, or −1 when the point is outside the iteration space.
func (ix *Index) Pos(it []int64) int {
	if pos, ok := slices.BinarySearch(ix.ranks, ix.Iter.Rank(it)); ok && ix.Iter.Contains(it) {
		return pos
	}
	return -1
}

// Row returns the element ids touched by iteration pos, one per slot.
func (ix *Index) Row(pos int) []int32 {
	w := len(ix.Slots)
	return ix.elem[pos*w : (pos+1)*w]
}

// NumElems is the number of distinct elements the nest touches.
func (ix *Index) NumElems() int { return len(ix.elemRank) }

// ElemRank returns the rank of an element id inside its array's box;
// within one array, rank order is lexicographic index order.
func (ix *Index) ElemRank(id int32) int64 { return ix.elemRank[id] }

// Elem returns the array name and data-space index of an element id.
func (ix *Index) Elem(id int32) (string, []int64) {
	a := ix.Slots[ix.elemSlot[id]].Array
	return ix.Arrays[a], ix.Elems[a].Unrank(ix.elemRank[id], make([]int64, len(ix.Elems[a].Lo)))
}
