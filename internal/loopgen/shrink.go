package loopgen

// Greedy test-case shrinking: given a nest on which some predicate
// fails, Shrink searches for a structurally smaller nest on which it
// still fails, so conformance failures are reported as minimal DSL
// repros instead of whatever the generator happened to draw. The moves
// mirror the generator's degrees of freedom — drop a statement, drop a
// read, tighten an extent, drop a whole loop level (with its H column),
// and pull coefficients/offsets toward zero — and every candidate is
// re-validated, so per-array uniform generation is preserved (H edits
// apply to all references of the array at once).

import "commfree/internal/loop"

// shrinkBudget caps predicate evaluations per Shrink call; the
// predicate typically runs the full partition pipeline, so the search
// is bounded rather than exhaustive.
const shrinkBudget = 400

// Shrink greedily minimizes nest while fails(nest) remains true. The
// input nest is never mutated; if fails(nest) is false it is returned
// unchanged.
func Shrink(nest *loop.Nest, fails func(*loop.Nest) bool) *loop.Nest {
	if !fails(nest) {
		return nest
	}
	cur := nest.Clone()
	calls := 0
	for improved := true; improved && calls < shrinkBudget; {
		improved = false
		for _, cand := range candidates(cur) {
			if cand.Validate() != nil || Size(cand) >= Size(cur) {
				continue
			}
			calls++
			if fails(cand) {
				cur = cand
				improved = true
				break
			}
			if calls >= shrinkBudget {
				break
			}
		}
	}
	return cur
}

// Size orders nests for the greedy descent: iteration-space volume
// dominates, then depth, statements, reads, and coefficient magnitude.
// Shrink only ever returns a nest with Size ≤ the input's.
func Size(n *loop.Nest) int64 {
	iters := int64(1)
	for _, lv := range n.Levels {
		ext := lv.Upper.Const - lv.Lower.Const + 1
		if ext < 1 {
			ext = 1
		}
		iters *= ext
	}
	s := iters*10 + int64(len(n.Levels))*1000
	for _, st := range n.Body {
		s += 500 + int64(len(st.Reads))*100
		for _, r := range refsOf(st) {
			for _, row := range r.H {
				for _, c := range row {
					s += abs64(c)
				}
			}
			for _, o := range r.Offset {
				s += abs64(o)
			}
		}
	}
	return s
}

func refsOf(st *loop.Statement) []loop.Ref {
	return append([]loop.Ref{st.Write}, st.Reads...)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// candidates enumerates all one-step shrinks of n, biggest wins first
// (statement drops before coefficient nudges).
func candidates(n *loop.Nest) []*loop.Nest {
	var out []*loop.Nest

	// Drop one statement.
	if len(n.Body) > 1 {
		for s := range n.Body {
			c := n.Clone()
			c.Body = append(c.Body[:s], c.Body[s+1:]...)
			out = append(out, c)
		}
	}

	// Drop one loop level (and its column from every bound and H).
	if len(n.Levels) > 2 {
		for k := range n.Levels {
			if c, ok := dropLevel(n, k); ok {
				out = append(out, c)
			}
		}
	}

	// Drop one read.
	for s, st := range n.Body {
		for r := range st.Reads {
			c := n.Clone()
			c.Body[s].Reads = append(c.Body[s].Reads[:r], c.Body[s].Reads[r+1:]...)
			out = append(out, c)
		}
	}

	// Tighten a constant extent: first all the way to 2, then by one.
	for k, lv := range n.Levels {
		if !lv.Lower.IsConst() || !lv.Upper.IsConst() {
			continue
		}
		if ext := lv.Upper.Const - lv.Lower.Const + 1; ext > 2 {
			c := n.Clone()
			c.Levels[k].Upper.Const = lv.Lower.Const + 1
			out = append(out, c)
			c = n.Clone()
			c.Levels[k].Upper.Const = lv.Upper.Const - 1
			out = append(out, c)
		}
	}

	// Halve one shared H coefficient toward zero — applied to every
	// reference of the array so uniform generation survives.
	for _, mv := range hMoves(n) {
		out = append(out, mv)
	}

	// Halve one offset entry toward zero (offsets are per-reference).
	for s, st := range n.Body {
		for ri := -1; ri < len(st.Reads); ri++ {
			ref := st.Write
			if ri >= 0 {
				ref = st.Reads[ri]
			}
			for row, o := range ref.Offset {
				if o == 0 {
					continue
				}
				c := n.Clone()
				tgt := &c.Body[s].Write
				if ri >= 0 {
					tgt = &c.Body[s].Reads[ri]
				}
				tgt.Offset[row] = o / 2
				out = append(out, c)
			}
		}
	}
	return out
}

// dropLevel removes level k when no bound references it; every H loses
// column k.
func dropLevel(n *loop.Nest, k int) (*loop.Nest, bool) {
	for _, lv := range n.Levels {
		if lv.Lower.Coeffs[k] != 0 || lv.Upper.Coeffs[k] != 0 {
			return nil, false
		}
	}
	c := n.Clone()
	c.Levels = append(c.Levels[:k], c.Levels[k+1:]...)
	for i := range c.Levels {
		c.Levels[i].Lower.Coeffs = dropCol(c.Levels[i].Lower.Coeffs, k)
		c.Levels[i].Upper.Coeffs = dropCol(c.Levels[i].Upper.Coeffs, k)
	}
	for _, st := range c.Body {
		for i := range st.Write.H {
			st.Write.H[i] = dropCol(st.Write.H[i], k)
		}
		for r := range st.Reads {
			for i := range st.Reads[r].H {
				st.Reads[r].H[i] = dropCol(st.Reads[r].H[i], k)
			}
		}
	}
	return c, true
}

func dropCol(row []int64, k int) []int64 {
	return append(row[:k], row[k+1:]...)
}

// hMoves halves one nonzero H entry toward zero, simultaneously in
// every reference of that array (only when all of them still share one
// reference matrix — always true for generated nests).
func hMoves(n *loop.Nest) []*loop.Nest {
	shapes := map[string]loop.Ref{}
	uniform := map[string]bool{}
	for _, st := range n.Body {
		for _, r := range refsOf(st) {
			if first, ok := shapes[r.Array]; !ok {
				shapes[r.Array] = r
				uniform[r.Array] = true
			} else if !first.SameFunction(r) {
				uniform[r.Array] = false
			}
		}
	}
	var out []*loop.Nest
	for name, ref := range shapes {
		if !uniform[name] {
			continue
		}
		for i := range ref.H {
			for j, v := range ref.H[i] {
				if v == 0 {
					continue
				}
				c := n.Clone()
				for _, st := range c.Body {
					if st.Write.Array == name {
						st.Write.H[i][j] = v / 2
					}
					for r := range st.Reads {
						if st.Reads[r].Array == name {
							st.Reads[r].H[i][j] = v / 2
						}
					}
				}
				out = append(out, c)
			}
		}
	}
	return out
}
