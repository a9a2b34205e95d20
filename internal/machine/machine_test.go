package machine

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestMeshBasics(t *testing.T) {
	m := Mesh{P1: 4, P2: 4}
	if m.Size() != 16 || m.Diameter() != 6 {
		t.Errorf("size=%d diameter=%d", m.Size(), m.Diameter())
	}
	sq, err := SquareMesh(16)
	if err != nil || sq.P1 != 4 || sq.P2 != 4 {
		t.Errorf("SquareMesh(16) = %v, %v", sq, err)
	}
	if _, err := SquareMesh(5); err == nil {
		t.Error("SquareMesh(5) should fail")
	}
	if got := MeshFor(16); got != sq {
		t.Errorf("MeshFor(16) = %v, want %v", got, sq)
	}
	if got, want := MeshFor(5), (Mesh{P1: 1, P2: 5}); got != want {
		t.Errorf("MeshFor(5) = %v, want %v", got, want)
	}
}

func TestNodeLocalMemory(t *testing.T) {
	m := New(Mesh{P1: 1, P2: 2}, Transputer())
	n := m.Node(0)
	n.Write("x", 42)
	v, err := n.Read("x")
	if err != nil || v != 42 {
		t.Errorf("Read = %v, %v", v, err)
	}
	// A read miss is an error and counts as an attempted inter-node
	// message.
	if _, err := n.Read("y"); err == nil {
		t.Error("missing datum read succeeded")
	}
	if m.InterNodeMessages() != 1 {
		t.Errorf("inter-node messages = %d, want 1", m.InterNodeMessages())
	}
	s := n.Stats()
	if s.Reads != 2 || s.Writes != 1 || s.Misses != 1 || s.ResidentData != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// has reports whether the datum is resident on the node.
func has(m *Machine, node int, key string) bool {
	_, ok := m.Node(node).Value(key)
	return ok
}

func TestDistributionCosts(t *testing.T) {
	c := CostModel{TComp: 1, TStart: 10, TComm: 1}
	m := New(Mesh{P1: 2, P2: 2}, c)
	// Unicast of 5 data: 10 + 5.
	m.SendTo(0, []Datum{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}})
	if got := m.DistributionTime(); got != 15 {
		t.Errorf("unicast time = %v, want 15", got)
	}
	if !has(m, 0, "a") || has(m, 1, "a") {
		t.Error("unicast delivered to wrong nodes")
	}
	// One stream of 3 words to 2 nodes, 6 copies left behind: 10 + (3 + 1).
	m2 := New(Mesh{P1: 2, P2: 2}, c)
	m2.ChargeMulticast(2, 3, 6)
	if got := m2.DistributionTime(); got != 14 {
		t.Errorf("multicast time = %v, want 14", got)
	}
	if m2.Messages() != 1 || m2.DataMoved() != 6 {
		t.Errorf("multicast messages=%d moved=%d, want 1 and 6", m2.Messages(), m2.DataMoved())
	}
	// MulticastInstall is the same charge plus the per-node datum lists.
	m2i := New(Mesh{P1: 2, P2: 2}, c)
	xyz := []Datum{{"x", 1}, {"y", 2}, {"z", 3}}
	m2i.MulticastInstall([]int{1, 2}, 3, map[int][]Datum{1: xyz, 2: xyz})
	if got := m2i.DistributionTime(); got != 14 || m2i.DataMoved() != 6 {
		t.Errorf("multicast install time = %v moved = %d, want 14 and 6", got, m2i.DataMoved())
	}
	if !has(m2i, 1, "x") || !has(m2i, 2, "x") || has(m2i, 0, "x") {
		t.Error("multicast delivery wrong")
	}
	// Broadcast of 2 words on the diameter-2 mesh: 10 + 2·2.
	m3 := New(Mesh{P1: 2, P2: 2}, c)
	m3.ChargeBroadcast(2, 8)
	if got := m3.DistributionTime(); got != 14 {
		t.Errorf("broadcast time = %v, want 14", got)
	}
	if m3.DataMoved() != 8 {
		t.Errorf("data moved = %d, want 8", m3.DataMoved())
	}
	// A one-node mesh still pays one hop per word.
	m4 := New(Mesh{P1: 1, P2: 1}, c)
	m4.ChargeBroadcast(2, 2)
	if got := m4.DistributionTime(); got != 12 {
		t.Errorf("one-node broadcast time = %v, want 12", got)
	}
}

func TestRunChargesMaxIterations(t *testing.T) {
	c := CostModel{TComp: 2, TStart: 0, TComm: 0}
	m := New(Mesh{P1: 1, P2: 2}, c)
	err := m.Run(func(n *Node) error {
		// Node 0 does 3 iterations, node 1 does 7.
		count := 3
		if n.ID == 1 {
			count = 7
		}
		for i := 0; i < count; i++ {
			n.CountIteration()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ComputeTime(); got != 14 {
		t.Errorf("compute time = %v, want max(3,7)*2 = 14", got)
	}
}

// TestRunBoundedPanicReachesCaller: a node fn that panics on a node
// goroutine makes RunBounded panic on the calling goroutine, with that
// panic's value, where the caller can recover it; nodes dealt after the
// panic are not run.
func TestRunBoundedPanicReachesCaller(t *testing.T) {
	m := New(MeshFor(16), CostModel{TComp: 1})
	var ran atomic.Int64
	got := func() (v any) {
		defer func() { v = recover() }()
		_ = m.RunBounded(1, func(_ int, n *Node) error {
			ran.Add(1)
			if n.ID == 3 {
				panic("node 3 fell over")
			}
			return nil
		})
		return nil
	}()
	if got != "node 3 fell over" {
		t.Fatalf("RunBounded raised %v on the caller, want node 3's panic", got)
	}
	if n := ran.Load(); n != 4 {
		t.Errorf("%d nodes ran, want 4: the run stops at the panic", n)
	}
}

func TestL5DoublePrimeUsesLessDistributionThanPrime(t *testing.T) {
	// The paper's key observation: replicating only the needed parts of A
	// and B (L5″) moves less data than broadcasting the whole of B (L5′).
	c := Transputer()
	for _, m := range []int64{64, 128, 256} {
		prime, err := L5PrimeMachine(m, 16, c)
		if err != nil {
			t.Fatal(err)
		}
		double, err := L5DoublePrimeMachine(m, 16, c)
		if err != nil {
			t.Fatal(err)
		}
		if double.DistributionTime() >= prime.DistributionTime() {
			t.Errorf("M=%d: L5″ distribution %v ≥ L5′ %v", m,
				double.DistributionTime(), prime.DistributionTime())
		}
	}
}

func TestTableIShape(t *testing.T) {
	c := Transputer()
	rows, err := TableI([]int64{16, 32, 64, 128, 256}, []int{4, 16}, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Parallel beats sequential for every configuration (Table I).
		if r.Prime >= r.Sequential && r.M >= 32 {
			t.Errorf("M=%d p=%d: L5′ %v ≥ sequential %v", r.M, r.P, r.Prime, r.Sequential)
		}
		// L5″ is at least as fast as L5′ everywhere (Table II: its speedup
		// is uniformly higher).
		if r.DoublePrime > r.Prime {
			t.Errorf("M=%d p=%d: L5″ %v slower than L5′ %v", r.M, r.P, r.DoublePrime, r.Prime)
		}
		// Speedup below the trivial bound.
		if s := r.SpeedupDoublePrime(); s > float64(r.P)+1e-9 {
			t.Errorf("M=%d p=%d: superlinear speedup %v", r.M, r.P, s)
		}
	}
	// Speedup grows with M for fixed p (the paper's locality observation
	// aside — in our model distribution amortizes with M³/M² growth).
	for _, p := range []int{4, 16} {
		var last float64
		for _, r := range rows {
			if r.P != p {
				continue
			}
			s := r.SpeedupDoublePrime()
			if s < last {
				t.Errorf("p=%d: speedup not monotone at M=%d (%v after %v)", p, r.M, s, last)
			}
			last = s
		}
	}
	// Large-M speedups approach p: at M=256, p=16 the paper reports 15.14
	// for L5″; require ≥ 14 in our model.
	for _, r := range rows {
		if r.M == 256 && r.P == 16 {
			if s := r.SpeedupDoublePrime(); s < 14 || s > 16 {
				t.Errorf("M=256 p=16 L5″ speedup = %v, want ≈15", s)
			}
		}
	}
}

func TestTableIRejectsBadShapes(t *testing.T) {
	c := Transputer()
	if _, err := L5PrimeTime(10, 4, c); err == nil {
		t.Error("M not multiple of p accepted")
	}
	if _, err := L5DoublePrimeTime(9, 4, c); err == nil {
		t.Error("M not multiple of √p accepted")
	}
	if _, err := L5PrimeTime(16, 5, c); err == nil {
		t.Error("non-square p accepted")
	}
}

func TestSequentialTimeScale(t *testing.T) {
	c := Transputer()
	got := SequentialTime(256, c)
	// The paper measures 161.25 s for M=256; the calibrated constant puts
	// the model within 1%.
	if math.Abs(got-161.25)/161.25 > 0.01 {
		t.Errorf("sequential M=256 = %v s, want ≈161.25", got)
	}
}

func TestStatsAndCounters(t *testing.T) {
	m := New(Mesh{P1: 2, P2: 2}, Transputer())
	m.SendTo(0, []Datum{{"k", 1}})
	if m.Messages() != 1 || m.DataMoved() != 1 {
		t.Errorf("messages=%d moved=%d", m.Messages(), m.DataMoved())
	}
	if m.NumNodes() != 4 {
		t.Errorf("nodes = %d", m.NumNodes())
	}
	if m.Elapsed() != m.DistributionTime()+m.ComputeTime() {
		t.Error("elapsed mismatch")
	}
}
