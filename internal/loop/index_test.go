package loop

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// checkRanker asserts the three properties every consumer of the rank
// relies on: ranks enumerate the box 0..Volume−1 in lexicographic order,
// Unrank inverts Rank, and Contains accepts exactly the box.
func checkRanker(t *testing.T, lo, hi []int64) {
	t.Helper()
	r, err := NewRanker("test box", lo, hi)
	if err != nil {
		t.Fatalf("NewRanker(%v, %v): %v", lo, hi, err)
	}
	n := len(lo)
	pt := append([]int64(nil), lo...)
	var prev []int64
	for want := int64(0); want < r.Volume; want++ {
		if !r.Contains(pt) {
			t.Fatalf("box %v..%v does not contain its point %v", lo, hi, pt)
		}
		if got := r.Rank(pt); got != want {
			t.Fatalf("Rank(%v) = %d, want %d (box %v..%v)", pt, got, want, lo, hi)
		}
		if back := r.Unrank(want, make([]int64, n)); !slices.Equal(back, pt) {
			t.Fatalf("Unrank(%d) = %v, want %v", want, back, pt)
		}
		if prev != nil && !LexLess(prev, pt) {
			t.Fatalf("rank order %v → %v is not lexicographic", prev, pt)
		}
		prev = append(prev[:0], pt...)
		for k := n - 1; k >= 0; k-- { // lexicographic successor
			if pt[k]++; pt[k] <= hi[k] {
				break
			}
			pt[k] = lo[k]
		}
	}
	for k := range lo {
		out := append([]int64(nil), lo...)
		out[k] = hi[k] + 1
		if r.Contains(out) {
			t.Errorf("box %v..%v contains %v", lo, hi, out)
		}
		out[k] = lo[k] - 1
		if r.Contains(out) {
			t.Errorf("box %v..%v contains %v", lo, hi, out)
		}
	}
}

func TestRankerOrderAndRoundTrip(t *testing.T) {
	for _, box := range [][2][]int64{
		{{}, {}},
		{{0}, {0}},
		{{1, 1}, {4, 4}},
		{{-3, 2, -1}, {1, 2, 3}},
		{{-5, -5}, {-2, -4}},
		{{7, 0, 0, 0}, {8, 1, 2, 1}},
	} {
		checkRanker(t, box[0], box[1])
	}
}

func TestRankerEmptyBox(t *testing.T) {
	r, err := NewRanker("empty", []int64{1, 5}, []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Volume != 0 || r.Contains([]int64{1, 5}) {
		t.Errorf("empty box: volume %d, contains its corner %v", r.Volume, r.Contains([]int64{1, 5}))
	}
}

func TestRankerOverflowIsTyped(t *testing.T) {
	for _, box := range [][2][]int64{
		{{0, 0}, {math.MaxInt64 - 1, 1}},                 // volume 2·MaxInt64
		{{math.MinInt64}, {math.MaxInt64}},               // extent wraps
		{{0, 0, 0}, {1 << 21, 1 << 21, 1 << 21}},         // (2²¹+1)³ > 2⁶³
		{{-1 << 40, -1 << 40}, {1 << 40, 1 << 40}},       // 2⁴¹·2⁴¹
		{{0, 0, 0, 0}, {65535, 65535, 65535, 65535 * 2}}, // just over
	} {
		_, err := NewRanker("big box", box[0], box[1])
		var over *RankOverflowError
		if !errors.As(err, &over) {
			t.Errorf("NewRanker(%v, %v) = %v, want *RankOverflowError", box[0], box[1], err)
		}
	}
	if _, err := NewRanker("fits", []int64{0, 0, 0, 0}, []int64{65535, 65535, 65535, 32766}); err != nil {
		t.Errorf("box of volume 2⁶³−2⁴⁸ rejected: %v", err)
	}
}

// TestComposeMatchesRankOfIndex: the linear form of a reference is the
// rank of the element it touches, including negative and strided
// subscripts.
func TestComposeMatchesRankOfIndex(t *testing.T) {
	ref := Ref{Array: "A", H: [][]int64{{-2, 0, 1}, {0, 3, -1}}, Offset: []int64{5, -7}}
	box, err := NewRanker("A", []int64{-40, -40}, []int64{40, 40})
	if err != nil {
		t.Fatal(err)
	}
	lin := box.Compose(3, ref.H, ref.Offset)
	for i := int64(-3); i <= 3; i++ {
		for j := int64(-3); j <= 3; j++ {
			for k := int64(-3); k <= 3; k++ {
				it := []int64{i, j, k}
				if got, want := lin.At(it), box.Rank(ref.Index(it)); got != want {
					t.Fatalf("At(%v) = %d, want rank %d of %v", it, got, want, ref.Index(it))
				}
			}
		}
	}
}

// TestIndexAgreesWithTheNest checks the enumerated view against the
// nest's own semantics on a triangular, strided, negative-offset nest:
// positions follow Iterations(), Pos inverts Points and rejects
// outsiders, and two accesses share an element id exactly when they
// touch the same element of the same array.
func TestIndexAgreesWithTheNest(t *testing.T) {
	nest := &Nest{
		Levels: []Level{
			{Name: "i", Lower: ConstAffine(2, -2), Upper: ConstAffine(2, 3)},
			{Name: "j", Lower: Affine{Coeffs: []int64{1, 0}, Const: 0}, Upper: ConstAffine(2, 4)},
		},
		Body: []*Statement{
			{Write: Ref{Array: "A", H: [][]int64{{2, 0}, {0, -1}}, Offset: []int64{0, 0}},
				Reads: []Ref{{Array: "A", H: [][]int64{{2, 0}, {0, -1}}, Offset: []int64{-2, 1}}, {Array: "B", H: [][]int64{{1, 1}}, Offset: []int64{-9}}}},
			{Write: Ref{Array: "B", H: [][]int64{{1, 1}}, Offset: []int64{0}},
				Reads: []Ref{{Array: "A", H: [][]int64{{2, 0}, {0, -1}}, Offset: []int64{0, 0}}}},
		},
	}
	if err := nest.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(nest)
	if err != nil {
		t.Fatal(err)
	}
	its := nest.Iterations()
	if int64(len(its)) != ix.Count || len(ix.Points) != len(its) {
		t.Fatalf("index has %d points (count %d), nest %d", len(ix.Points), ix.Count, len(its))
	}
	type touch struct {
		array string
		idx   [2]int64
	}
	ids := map[touch]int32{}
	for pos, it := range its {
		if !slices.Equal(it, ix.Points[pos]) {
			t.Fatalf("Points[%d] = %v, want %v", pos, ix.Points[pos], it)
		}
		if got := ix.Pos(it); got != pos {
			t.Fatalf("Pos(%v) = %d, want %d", it, got, pos)
		}
		slot := 0
		for _, st := range nest.Body {
			for _, r := range append(append([]Ref(nil), st.Reads...), st.Write) {
				var key touch
				key.array = r.Array
				copy(key.idx[:], r.Index(it))
				id := ix.Row(pos)[slot]
				if known, ok := ids[key]; ok && known != id {
					t.Fatalf("%s%v has ids %d and %d", r.Array, r.Index(it), known, id)
				}
				ids[key] = id
				array, idx := ix.Elem(id)
				if array != r.Array || !slices.Equal(idx, r.Index(it)) {
					t.Fatalf("Elem(%d) = %s%v, want %s%v", id, array, idx, r.Array, r.Index(it))
				}
				slot++
			}
		}
	}
	if len(ids) != ix.NumElems() {
		t.Errorf("index numbers %d elements, the nest touches %d", ix.NumElems(), len(ids))
	}
	for _, out := range [][]int64{{-3, 0}, {0, -1}, {2, 1}, {4, 4}, {3, 5}} { // (2,1) is inside the box, outside the triangle
		if ix.Pos(out) != -1 {
			t.Errorf("Pos(%v) = %d, want -1", out, ix.Pos(out))
		}
	}
}

// FuzzRanker drives the ranking properties over arbitrary small boxes.
func FuzzRanker(f *testing.F) {
	f.Add(int64(1), int64(4), int64(-2), int64(3), int64(0), int64(0))
	f.Add(int64(-7), int64(-7), int64(5), int64(2), int64(1), int64(2))
	f.Fuzz(func(t *testing.T, lo0, ext0, lo1, ext1, lo2, ext2 int64) {
		lo := []int64{lo0 % 1000, lo1 % 1000, lo2 % 1000}
		hi := make([]int64, 3)
		for k, e := range []int64{ext0, ext1, ext2} {
			hi[k] = lo[k] + (e%6+6)%6 // extents 1..6
		}
		checkRanker(t, lo, hi)
	})
}
