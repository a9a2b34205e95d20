package partition

import (
	"strings"
	"testing"

	"commfree/internal/loop"
	"commfree/internal/space"
)

func compute(t *testing.T, n *loop.Nest, s Strategy) *Result {
	t.Helper()
	r, err := Compute(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// points lists a block's iterations, in lexicographic order.
func points(p *IterationPartition, b *Block) [][]int64 {
	pts := make([][]int64, len(b.Pos))
	for t, pos := range b.Pos {
		pts[t] = p.Index.Points[pos]
	}
	return pts
}

func TestL1NonDuplicate(t *testing.T) {
	r := compute(t, loop.L1(), NonDuplicate)
	// Paper: Ψ_A = Ψ_C = span{(1,1)}, Ψ_B = {0}, Ψ = span{(1,1)}.
	want := space.Span(2, []int64{1, 1})
	if !r.PerArray["A"].Equal(want) {
		t.Errorf("Ψ_A = %s, want span{(1,1)}", r.PerArray["A"])
	}
	if !r.PerArray["C"].Equal(want) {
		t.Errorf("Ψ_C = %s, want span{(1,1)}", r.PerArray["C"])
	}
	if !r.PerArray["B"].IsZero() {
		t.Errorf("Ψ_B = %s, want span{}", r.PerArray["B"])
	}
	if !r.Psi.Equal(want) {
		t.Errorf("Ψ = %s", r.Psi)
	}
	// Fig. 3: seven iteration blocks along (1,1), sizes 1,2,3,4,3,2,1.
	if r.Iter.NumBlocks() != 7 {
		t.Fatalf("blocks = %d, want 7", r.Iter.NumBlocks())
	}
	sizes := make([]int, 0, 7)
	for _, b := range r.Iter.Blocks {
		sizes = append(sizes, b.Size())
	}
	wantSizes := []int{1, 2, 3, 4, 3, 2, 1}
	for i := range wantSizes {
		if sizes[i] != wantSizes[i] {
			t.Errorf("block sizes = %v, want %v", sizes, wantSizes)
			break
		}
	}
	// Base point of the middle block is its lexicographic minimum; the
	// paper marks b̄₅ = (2,1) for B₅ = {(2,1),(3,2),(4,3)}.
	var blk *Block
	for _, b := range r.Iter.Blocks {
		if first := points(r.Iter, b)[0]; b.Size() == 3 && first[0] == 2 && first[1] == 1 {
			blk = b
		}
	}
	if blk == nil {
		t.Fatal("block B₅ {(2,1),(3,2),(4,3)} not found")
	}
	if blk.Base[0] != 2 || blk.Base[1] != 1 {
		t.Errorf("base point = %v, want (2,1)", blk.Base)
	}
	// Fig. 2: each array splits into 7 data blocks, no duplication.
	for _, a := range []string{"A", "B", "C"} {
		dp := r.DataPartition(a)
		if len(dp.Blocks) != 7 {
			t.Errorf("array %s: %d data blocks", a, len(dp.Blocks))
		}
		if dp.Duplicated {
			t.Errorf("array %s duplicated under non-duplicate strategy", a)
		}
	}
	if r.ParallelismDim() != 1 {
		t.Errorf("parallelism dim = %d", r.ParallelismDim())
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestL1DuplicateSameAsNonDuplicate(t *testing.T) {
	// Paper: for L1 the duplicate strategy obtains the same results.
	r := compute(t, loop.L1(), Duplicate)
	if !r.Psi.Equal(space.Span(2, []int64{1, 1})) {
		t.Errorf("Ψʳ = %s, want span{(1,1)}", r.Psi)
	}
	if r.Iter.NumBlocks() != 7 {
		t.Errorf("blocks = %d", r.Iter.NumBlocks())
	}
	// Ψ_Bʳ = Ψ_Cʳ = span{} (fully duplicable), Ψ_Aʳ = span{(1,1)}.
	if !r.PerArray["B"].IsZero() || !r.PerArray["C"].IsZero() {
		t.Error("B, C should have empty reduced reference spaces")
	}
	for _, a := range []string{"A", "B", "C"} {
		if r.DataPartition(a).Duplicated {
			t.Errorf("array %s needlessly duplicated", a)
		}
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestL2NonDuplicateSequential(t *testing.T) {
	r := compute(t, loop.L2(), NonDuplicate)
	// Paper: Ψ_A = span{(1,-1),(1/2,1/2)} = Q², so L2 runs sequentially.
	if !r.PerArray["A"].Equal(space.Full(r.PerArray["A"].Ambient())) {
		t.Errorf("Ψ_A = %s, want full", r.PerArray["A"])
	}
	if !r.PerArray["B"].IsZero() {
		t.Errorf("Ψ_B = %s, want span{}", r.PerArray["B"])
	}
	if !r.Psi.Equal(space.Full(r.Psi.Ambient())) || r.Iter.NumBlocks() != 1 {
		t.Errorf("Ψ = %s, blocks = %d (want sequential)", r.Psi, r.Iter.NumBlocks())
	}
	if r.ParallelismDim() != 0 {
		t.Errorf("parallelism = %d", r.ParallelismDim())
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestL2DuplicateFullyParallel(t *testing.T) {
	r := compute(t, loop.L2(), Duplicate)
	// Paper: both arrays fully duplicable → Ψʳ = span(∅), 16 singleton
	// blocks (Fig. 5).
	if !r.Psi.IsZero() {
		t.Fatalf("Ψʳ = %s, want span{}", r.Psi)
	}
	if r.Iter.NumBlocks() != 16 {
		t.Errorf("blocks = %d, want 16", r.Iter.NumBlocks())
	}
	for _, b := range r.Iter.Blocks {
		if b.Size() != 1 {
			t.Errorf("block %d size = %d, want 1", b.ID, b.Size())
		}
	}
	// Array A must actually be duplicated (anti-diagonal elements are
	// written by several iterations, Fig. 4).
	if !r.DataPartition("A").Duplicated {
		t.Error("A should be duplicated")
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
	if r.ParallelismDim() != 2 {
		t.Errorf("parallelism = %d", r.ParallelismDim())
	}
}

func TestL3Strategies(t *testing.T) {
	// Non-minimal: both strategies sequential (Ψ = Ψʳ = Q²).
	for _, s := range []Strategy{NonDuplicate, Duplicate} {
		r := compute(t, loop.L3(), s)
		if !r.Psi.Equal(space.Full(r.Psi.Ambient())) {
			t.Errorf("%s: Ψ = %s, want full (sequential)", s, r.Psi)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("%s: verify: %v", s, err)
		}
	}
	// Theorem 3: minimal non-duplicate Ψ = span{(1,0),(1,-1)} = Q².
	r := compute(t, loop.L3(), MinimalNonDuplicate)
	if !r.Psi.Equal(space.Full(r.Psi.Ambient())) {
		t.Errorf("minimal Ψ = %s, want full", r.Psi)
	}
	if err := r.Verify(); err != nil {
		t.Errorf("minimal non-dup verify: %v", err)
	}
	// Theorem 4: minimal duplicate Ψ = span{(1,0)} → 4 column blocks
	// (Figs. 8, 9).
	r = compute(t, loop.L3(), MinimalDuplicate)
	if !r.Psi.Equal(space.Span(2, []int64{1, 0})) {
		t.Fatalf("minimal-dup Ψ = %s, want span{(1,0)}", r.Psi)
	}
	if r.Iter.NumBlocks() != 4 {
		t.Errorf("blocks = %d, want 4", r.Iter.NumBlocks())
	}
	for _, b := range r.Iter.Blocks {
		if b.Size() != 4 {
			t.Errorf("block %d size = %d, want 4", b.ID, b.Size())
		}
		// All iterations of a block share j.
		for _, it := range points(r.Iter, b) {
			if it[1] != b.Base[1] {
				t.Errorf("block %d mixes columns: %v", b.ID, points(r.Iter, b))
			}
		}
	}
	if err := r.Verify(); err != nil {
		t.Errorf("minimal-dup verify: %v", err)
	}
}

func TestL4AllStrategiesAgree(t *testing.T) {
	// Paper: the minimal partitioning space of L4 is span{(1,-1,1)} under
	// any of Theorems 1-4 (no duplication helps, no redundancy exists).
	want := space.Span(3, []int64{1, -1, 1})
	for _, s := range []Strategy{NonDuplicate, Duplicate, MinimalNonDuplicate, MinimalDuplicate} {
		r := compute(t, loop.L4(), s)
		if !r.Psi.Equal(want) {
			t.Errorf("%s: Ψ = %s, want span{(1,-1,1)}", s, r.Psi)
		}
		if err := r.Verify(); err != nil {
			t.Errorf("%s: verify: %v", s, err)
		}
	}
	// 37 blocks of the 4×4×4 space along (1,-1,1).
	r := compute(t, loop.L4(), NonDuplicate)
	if r.Iter.NumBlocks() != 37 {
		t.Errorf("blocks = %d, want 37", r.Iter.NumBlocks())
	}
	total := 0
	for _, b := range r.Iter.Blocks {
		total += b.Size()
	}
	if total != 64 {
		t.Errorf("block sizes sum to %d, want 64", total)
	}
}

func TestL5Strategies(t *testing.T) {
	// Paper: Ψ_A = span{(0,1,0)}, Ψ_B = span{(1,0,0)}, Ψ_C = span{(0,0,1)};
	// non-duplicate → Q³ (sequential).
	r := compute(t, loop.L5(4), NonDuplicate)
	if !r.PerArray["A"].Equal(space.Span(3, []int64{0, 1, 0})) {
		t.Errorf("Ψ_A = %s", r.PerArray["A"])
	}
	if !r.PerArray["B"].Equal(space.Span(3, []int64{1, 0, 0})) {
		t.Errorf("Ψ_B = %s", r.PerArray["B"])
	}
	if !r.PerArray["C"].Equal(space.Span(3, []int64{0, 0, 1})) {
		t.Errorf("Ψ_C = %s", r.PerArray["C"])
	}
	if !r.Psi.Equal(space.Full(r.Psi.Ambient())) {
		t.Errorf("Ψ = %s, want Q³", r.Psi)
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}

	// Duplicate (L5″): Ψ″ = span{(0,0,1)} → M² = 16 blocks.
	r = compute(t, loop.L5(4), Duplicate)
	if !r.Psi.Equal(space.Span(3, []int64{0, 0, 1})) {
		t.Fatalf("Ψ″ = %s, want span{(0,0,1)}", r.Psi)
	}
	if r.Iter.NumBlocks() != 16 {
		t.Errorf("blocks = %d, want 16", r.Iter.NumBlocks())
	}
	// A and B get duplicated (each row/column replicated across blocks),
	// C does not.
	if !r.DataPartition("A").Duplicated || !r.DataPartition("B").Duplicated {
		t.Error("A and B should be duplicated under L5″")
	}
	if r.DataPartition("C").Duplicated {
		t.Error("C should not be duplicated")
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestL5SelectiveDuplication(t *testing.T) {
	// Section IV's L5′: duplicate only B (A stays non-duplicated) →
	// Ψ′ = span{(0,1,0),(0,0,1)} → M row blocks.
	r, err := ComputeSelective(loop.L5(4), map[string]bool{"B": true, "C": true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Psi.Equal(space.Span(3, []int64{0, 1, 0}, []int64{0, 0, 1})) {
		t.Fatalf("Ψ′ = %s, want span{(0,1,0),(0,0,1)}", r.Psi)
	}
	if r.Iter.NumBlocks() != 4 {
		t.Errorf("blocks = %d, want 4 (one per row)", r.Iter.NumBlocks())
	}
	if r.DataPartition("A").Duplicated {
		t.Error("A must not be duplicated under L5′")
	}
	if !r.DataPartition("B").Duplicated {
		t.Error("B must be duplicated under L5′ (whole array per processor)")
	}
	// Every block reads the whole of B: copy factor = number of blocks.
	if got := r.DataPartition("B").CopyFactor; got != 4.0 {
		t.Errorf("B copy factor = %v, want 4", got)
	}
	if err := r.Verify(); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestBlockLookupConsistency(t *testing.T) {
	r := compute(t, loop.L1(), NonDuplicate)
	for _, b := range r.Iter.Blocks {
		for _, it := range points(r.Iter, b) {
			if got := r.Iter.BlockOf(it); got != b {
				t.Errorf("BlockOf(%v) = block %v, want %d", it, got, b.ID)
			}
		}
	}
	if r.Iter.BlockOf([]int64{99, 99}) != nil {
		t.Error("out-of-space iteration found a block")
	}
}

func partitionIterations(t *testing.T, nest *loop.Nest, psi *space.Space) *IterationPartition {
	t.Helper()
	ix, err := loop.NewIndex(nest)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionIterations(ix, psi)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIterationPartitionFullPsi(t *testing.T) {
	// dim(Ψ) = n → exactly one block (the note after Definition 2).
	p := partitionIterations(t, loop.L1(), space.Full(2))
	if p.NumBlocks() != 1 || p.Blocks[0].Size() != 16 {
		t.Errorf("blocks = %d, size = %d", p.NumBlocks(), p.Blocks[0].Size())
	}
	// dim(Ψ) = 0 → one iteration per block.
	p = partitionIterations(t, loop.L1(), space.Zero(2))
	if p.NumBlocks() != 16 {
		t.Errorf("blocks = %d, want 16", p.NumBlocks())
	}
}

func TestVerifyCatchesBadPartition(t *testing.T) {
	// Partition L1 along (1,0) — NOT communication-free: the flow
	// dependence (1,1) crosses blocks.
	p := partitionIterations(t, loop.L1(), space.Span(2, []int64{1, 0}))
	if err := VerifyCommunicationFree(p, false, nil); err == nil {
		t.Error("bad partition passed non-duplicate verification")
	}
	if err := VerifyCommunicationFree(p, true, nil); err == nil {
		t.Error("bad partition passed duplicate verification (flow crosses)")
	}
}

func TestMaxBlockSize(t *testing.T) {
	r := compute(t, loop.L1(), NonDuplicate)
	if got := r.Iter.MaxBlockSize(); got != 4 {
		t.Errorf("max block = %d, want 4", got)
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		NonDuplicate:        "non-duplicate",
		Duplicate:           "duplicate",
		MinimalNonDuplicate: "minimal non-duplicate",
		MinimalDuplicate:    "minimal duplicate",
		Selective:           "selective duplicate",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestSummaryContents(t *testing.T) {
	r := compute(t, loop.L1(), NonDuplicate)
	s := r.Summary()
	for _, want := range []string{"non-duplicate", "Ψ_A", "span{(1,1)}", "7 blocks"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
