package kernel

// The flattened execution plan. A Plan is pure data — the lowering pass
// in internal/exec fills it in — plus the two block executors. All
// indices are into the Plan's own flat pools so a plan is one handful
// of slices regardless of block count.

// Stmt is one statement of the lowered nest.
type Stmt struct {
	WriteArr  int32
	ReadArrs  []int32 // buffer index per read slot
	Fast      Fast
	MulAdd    [3]int32 // read slots (a, b, c) when Fast == FastMulAdd
	Code      *Code    // when Fast == FastBytecode
	UsesIndex bool     // Code reads loop indices
}

// Seg is a straight-line run of one statement (single-statement nests
// only): iterations T0..T0+N-1 of the owning block, all non-redundant,
// with a constant iteration delta, so every offset advances by a fixed
// scalar stride. T0/N are raw block-iteration positions — redundant
// iterations split segments but keep their positions, so a chaos cut
// at `count` raw iterations lands exactly where the oracle's would.
type Seg struct {
	Stmt         int32
	T0, N        int32
	WOff, WStep  int64
	RBase        int32 // into ROff/RStep: numReads entries
	IBase, DBase int32 // into It0/Delta (Depth entries each); -1 if unused
}

// Row is a straight-line run of a multi-statement body: per iteration
// every statement executes in order, with per-(statement, iteration)
// redundancy masks. Offsets for all statements advance together.
type Row struct {
	T0, N        int32
	OBase        int32 // into RowOff/RowStep: RowWidth entries
	MBase        int32 // into Masks; -1 when the row has no redundant point
	IBase, DBase int32 // into It0/Delta; -1 if no statement uses indices
}

// WriteRange describes N cells of one array written by a block —
// base + t·step for t in [0, N). Ranges are the block's write
// footprint: chaos checkpoints save them, duplicate commits walk them.
type WriteRange struct {
	Arr       int32
	N         int32
	Off, Step int64
}

// Plan is a fully lowered program: read-only, shared by every
// concurrent run.
type Plan struct {
	Depth    int
	MaxReads int
	MaxStack int
	RowWidth int // Σ per-statement (1 + numReads); multi-statement plans
	Multi    bool
	Stmts    []Stmt

	// Single-statement form.
	Segs      []Seg
	BlockSegs [][2]int32 // per block: [start, end) into Segs

	// Multi-statement form.
	Rows      []Row
	BlockRows [][2]int32
	RowOff    []int64 // per row: for each stmt, [writeOff, readOffs…]
	RowStep   []int64
	Masks     []uint64 // per row: per stmt, ceil(N/64) words

	// Shared pools.
	ROff  []int64 // per-seg read offsets
	RStep []int64
	It0   []int64 // iteration start points (Depth-strided)
	Delta []int64 // iteration deltas (Depth-strided)

	WR      []WriteRange
	BlockWR [][2]int32
}

// Scratch is one worker's mutable evaluation state, reused across
// blocks and runs (zero steady-state allocation).
type Scratch struct {
	Vals  []float64
	Stack []float64
	It    []int64
	Offs  []int64
	RBufs [][]float64
}

// NewScratch sizes a scratch for the plan.
func (p *Plan) NewScratch() *Scratch {
	offs := p.MaxReads
	if p.RowWidth > offs {
		offs = p.RowWidth
	}
	stack := p.MaxStack
	if stack < 1 {
		stack = 1
	}
	return &Scratch{
		Vals:  make([]float64, p.MaxReads),
		Stack: make([]float64, stack),
		It:    make([]int64, p.Depth),
		Offs:  make([]int64, offs),
		RBufs: make([][]float64, p.MaxReads),
	}
}

// ExecBlock runs the first count raw iterations of block bi against
// bufs. count == full iteration count is a normal run; smaller counts
// are the chaos injector's deterministic crash prefixes.
func (p *Plan) ExecBlock(bi int, count int64, bufs [][]float64, scr *Scratch) {
	if p.Multi {
		p.execRows(bi, count, bufs, scr)
	} else {
		p.execSegs(bi, count, bufs, scr)
	}
}

func (p *Plan) execSegs(bi int, count int64, bufs [][]float64, scr *Scratch) {
	se := p.BlockSegs[bi]
	for i := se[0]; i < se[1]; i++ {
		sg := &p.Segs[i]
		if int64(sg.T0) >= count {
			break
		}
		n := int64(sg.N)
		if rem := count - int64(sg.T0); rem < n {
			n = rem
		}
		st := &p.Stmts[sg.Stmt]
		wb := bufs[st.WriteArr]
		w, ws := sg.WOff, sg.WStep
		switch st.Fast {
		case FastMulAdd:
			a := st.MulAdd
			r0, s0 := p.ROff[sg.RBase+a[0]], p.RStep[sg.RBase+a[0]]
			r1, s1 := p.ROff[sg.RBase+a[1]], p.RStep[sg.RBase+a[1]]
			r2, s2 := p.ROff[sg.RBase+a[2]], p.RStep[sg.RBase+a[2]]
			b0, b1, b2 := bufs[st.ReadArrs[a[0]]], bufs[st.ReadArrs[a[1]]], bufs[st.ReadArrs[a[2]]]
			for t := int64(0); t < n; t++ {
				wb[w] = b0[r0] + float64(b1[r1]*b2[r2])
				w += ws
				r0 += s0
				r1 += s1
				r2 += s2
			}
		case FastSum1, FastAddChain:
			k := len(st.ReadArrs)
			offs, rb := scr.Offs[:k], scr.RBufs[:k]
			for j := 0; j < k; j++ {
				offs[j] = p.ROff[sg.RBase+int32(j)]
				rb[j] = bufs[st.ReadArrs[j]]
			}
			steps := p.RStep[sg.RBase : sg.RBase+int32(k)]
			for t := int64(0); t < n; t++ {
				var v float64
				j := 0
				if st.Fast == FastSum1 {
					v = 1
				} else {
					v = rb[0][offs[0]]
					j = 1
				}
				for ; j < k; j++ {
					v += rb[j][offs[j]]
				}
				wb[w] = v
				w += ws
				for j := 0; j < k; j++ {
					offs[j] += steps[j]
				}
			}
		default: // FastBytecode
			k := len(st.ReadArrs)
			offs, rb, vals := scr.Offs[:k], scr.RBufs[:k], scr.Vals[:k]
			for j := 0; j < k; j++ {
				offs[j] = p.ROff[sg.RBase+int32(j)]
				rb[j] = bufs[st.ReadArrs[j]]
			}
			steps := p.RStep[sg.RBase : sg.RBase+int32(k)]
			var it, delta []int64
			if st.UsesIndex {
				it = scr.It[:p.Depth]
				copy(it, p.It0[sg.IBase:int(sg.IBase)+p.Depth])
				delta = p.Delta[sg.DBase : int(sg.DBase)+p.Depth]
			}
			for t := int64(0); t < n; t++ {
				for j := 0; j < k; j++ {
					vals[j] = rb[j][offs[j]]
				}
				wb[w] = st.Code.Eval(it, vals, scr.Stack)
				w += ws
				for j := 0; j < k; j++ {
					offs[j] += steps[j]
				}
				if it != nil {
					for d := range it {
						it[d] += delta[d]
					}
				}
			}
		}
	}
}

func (p *Plan) execRows(bi int, count int64, bufs [][]float64, scr *Scratch) {
	re := p.BlockRows[bi]
	for i := re[0]; i < re[1]; i++ {
		row := &p.Rows[i]
		if int64(row.T0) >= count {
			break
		}
		n := int64(row.N)
		if rem := count - int64(row.T0); rem < n {
			n = rem
		}
		w := p.RowWidth
		offs := scr.Offs[:w]
		copy(offs, p.RowOff[row.OBase:int(row.OBase)+w])
		steps := p.RowStep[row.OBase : int(row.OBase)+w]
		var it, delta []int64
		if row.IBase >= 0 {
			it = scr.It[:p.Depth]
			copy(it, p.It0[row.IBase:int(row.IBase)+p.Depth])
			delta = p.Delta[row.DBase : int(row.DBase)+p.Depth]
		}
		// Mask stride uses the row's full length, not the cut prefix.
		mwords := int((int64(row.N) + 63) / 64)
		for t := int64(0); t < n; t++ {
			o := 0
			for si := range p.Stmts {
				st := &p.Stmts[si]
				k := len(st.ReadArrs)
				if row.MBase >= 0 && p.Masks[int(row.MBase)+si*mwords+int(t>>6)]&(1<<uint(t&63)) != 0 {
					o += 1 + k
					continue
				}
				vals := scr.Vals[:k]
				for j := 0; j < k; j++ {
					vals[j] = bufs[st.ReadArrs[j]][offs[o+1+j]]
				}
				var v float64
				switch st.Fast {
				case FastSum1:
					v = 1
					for j := 0; j < k; j++ {
						v += vals[j]
					}
				case FastAddChain:
					v = vals[0]
					for j := 1; j < k; j++ {
						v += vals[j]
					}
				case FastMulAdd:
					a := st.MulAdd
					v = vals[a[0]] + float64(vals[a[1]]*vals[a[2]])
				default:
					v = st.Code.Eval(it, vals, scr.Stack)
				}
				bufs[st.WriteArr][offs[o]] = v
				o += 1 + k
			}
			for j := 0; j < w; j++ {
				offs[j] += steps[j]
			}
			if it != nil {
				for d := range it {
					it[d] += delta[d]
				}
			}
		}
	}
}
