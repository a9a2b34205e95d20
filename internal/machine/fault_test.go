package machine

import (
	"math"
	"testing"
)

// scriptedFaults returns fixed (resends, delay) per node.
type scriptedFaults struct {
	resends map[int]int
	delayS  map[int]float64
}

func (f *scriptedFaults) DistFault(node int) (int, float64) {
	return f.resends[node], f.delayS[node]
}

func TestFaultInjectorChargesResendsAndDelay(t *testing.T) {
	cost := CostModel{TComp: 1e-6, TStart: 1e-3, TComm: 1e-6}
	m := New(Mesh{P1: 1, P2: 2}, cost)
	m.SetFaultInjector(&scriptedFaults{
		resends: map[int]int{0: 2},
		delayS:  map[int]float64{1: 5e-3},
	})

	m.ChargeSendWords(0, 100) // 1 delivery + 2 retransmissions
	m.ChargeSendWords(1, 100) // 1 delivery + 5ms link delay

	unicast := cost.TStart + 100*cost.TComm
	wantDist := 3*unicast + unicast + 5e-3
	if got := m.DistributionTime(); math.Abs(got-wantDist) > 1e-12 {
		t.Errorf("DistributionTime = %g, want %g", got, wantDist)
	}
	// 2 deliveries + 2 retransmissions; retransmitted words are not
	// delivered again.
	if got := m.Messages(); got != 4 {
		t.Errorf("Messages = %d, want 4", got)
	}
	if got := m.DataMoved(); got != 200 {
		t.Errorf("DataMoved = %d, want 200", got)
	}
}

func TestFaultInjectorDoesNotTouchNodeState(t *testing.T) {
	m := New(Mesh{P1: 1, P2: 1}, Transputer())
	m.SetFaultInjector(&scriptedFaults{resends: map[int]int{0: 3}})
	m.SendTo(0, []Datum{{Key: "A[1]", Value: 7}})
	if v, ok := m.Node(0).Value("A[1]"); !ok || v != 7 {
		t.Fatalf("datum corrupted by injection: %v %v", v, ok)
	}
	if n := len(m.Node(0).mem); n != 1 {
		t.Errorf("node memory size = %d, want 1", n)
	}
}

func TestFaultInjectorNilDisables(t *testing.T) {
	m := New(Mesh{P1: 1, P2: 1}, Transputer())
	m.SetFaultInjector(&scriptedFaults{resends: map[int]int{0: 1}})
	m.SetFaultInjector(nil)
	m.ChargeSendWords(0, 10)
	if got := m.Messages(); got != 1 {
		t.Errorf("Messages = %d after disabling injection, want 1", got)
	}
}

func TestAddComputeSeconds(t *testing.T) {
	m := New(Mesh{P1: 1, P2: 1}, Transputer())
	m.AddComputeSeconds(0.25)
	m.AddComputeSeconds(-1) // ignored
	if got := m.ComputeTime(); got != 0.25 {
		t.Errorf("ComputeTime = %g, want 0.25", got)
	}
}
