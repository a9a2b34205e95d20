package machine

import (
	"strings"
	"testing"
)

func TestTraceRecordsDistributionAndCompute(t *testing.T) {
	c := CostModel{TComp: 1, TStart: 2, TComm: 1}
	m := New(Mesh{P1: 1, P2: 2}, c)
	tr := m.EnableTrace()
	m.SendTo(0, []Datum{{"a", 1}, {"b", 2}})
	m.SendTo(1, []Datum{{"c", 3}})
	err := m.Run(func(n *Node) error {
		for i := 0; i <= n.ID; i++ {
			n.CountIteration()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	// 2 distribution events + 2 compute events.
	if len(events) != 4 {
		t.Fatalf("events = %d: %+v", len(events), events)
	}
	// Host events serialize: [0,4], [4,7].
	if events[0].Lane != "host" || events[0].Start != 0 || events[0].End != 4 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if events[1].Lane != "host" || events[1].Start != 4 || events[1].End != 7 {
		t.Errorf("event 1 = %+v", events[1])
	}
	// Compute events start after distribution and run concurrently.
	for _, e := range events[2:] {
		if !strings.HasPrefix(e.Lane, "PE") {
			t.Errorf("unexpected lane %q", e.Lane)
		}
		if e.Start != 7 {
			t.Errorf("compute start = %v, want 7", e.Start)
		}
	}
}

func TestTraceGanttRendering(t *testing.T) {
	c := CostModel{TComp: 1, TStart: 1, TComm: 1}
	m := New(Mesh{P1: 1, P2: 2}, c)
	tr := m.EnableTrace()
	m.SendTo(0, []Datum{{"a", 1}})
	_ = m.Run(func(n *Node) error {
		n.CountIteration()
		return nil
	})
	g := tr.Gantt(40)
	for _, want := range []string{"timeline 0", "host", "PE0", "=", "#", "distribution"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
}

func TestTraceEmptyAndDisabled(t *testing.T) {
	tr := &Trace{}
	if !strings.Contains(tr.Gantt(30), "no events") {
		t.Error("empty trace rendering wrong")
	}
	// Without EnableTrace, record is a no-op and nothing breaks.
	m := New(Mesh{P1: 1, P2: 1}, Transputer())
	m.SendTo(0, []Datum{{"a", 1}})
	if m.DistributionTime() <= 0 {
		t.Error("charge broken without trace")
	}
}

func TestTraceOnL5Run(t *testing.T) {
	mach, err := L5DoublePrimeMachine(8, 4, Transputer())
	if err != nil {
		t.Fatal(err)
	}
	// Tracing enabled after distribution misses those events but captures
	// compute; enable before a fresh run instead.
	tr := mach.EnableTrace()
	err = mach.Run(func(n *Node) error {
		n.CountIteration()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != 4 {
		t.Errorf("events = %d, want 4 compute lanes", len(tr.Events()))
	}
}
