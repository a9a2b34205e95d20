package deps

import (
	"strings"
	"testing"

	"commfree/internal/loop"
)

// vertexByName returns the vertex index with the given label, or -1.
func vertexByName(g *Graph, name string) int {
	for i, v := range g.Vertices {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// hasEdge reports whether an edge of the given kind connects the named
// vertices.
func hasEdge(g *Graph, from, to string, kind Kind) bool {
	f, t := vertexByName(g, from), vertexByName(g, to)
	for _, e := range g.Edges {
		if f >= 0 && t >= 0 && e.From == f && e.To == t && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestL3ReferenceGraphMatchesFig7(t *testing.T) {
	a := analyze(t, loop.L3())
	g := a.ReferenceGraph("A")
	// Vertices: w1 = A[i,j] (S1), w2 = A[i,j-1] (S2),
	// r1 = A[i-1,j-1] (S1 read), r2 = A[i+1,j-2] (S2 read).
	// NOTE: the paper numbers r1 = A[i+1,j-2] and r2 = A[i-1,j-1]; our
	// canonical order is statement order, so the names swap — the edge
	// structure below is stated in our labels.
	if len(g.Vertices) != 4 {
		t.Fatalf("vertices = %d", len(g.Vertices))
	}
	if g.Vertices[0].Name != "w1" || !g.Vertices[0].Access.IsWrite || g.Vertices[0].Access.Stmt != 0 {
		t.Errorf("w1 = %v", g.Vertices[0])
	}
	if g.Vertices[1].Name != "w2" || g.Vertices[1].Access.Stmt != 1 {
		t.Errorf("w2 = %v", g.Vertices[1])
	}
	// Our r1 is S1's read A[i-1,j-1] (the paper's r2); our r2 is S2's
	// read A[i+1,j-2] (the paper's r1).
	// Paper Fig. 7 edges, translated: output (w1,w2); input between the
	// two reads; flow (w1,paper-r2)=(w1,our-r1), (w2,our-r1);
	// anti (paper-r1,w1)=(our-r2,w1), (our-r2,w2).
	cases := []struct {
		from, to string
		kind     Kind
	}{
		{"w1", "w2", Output},
		{"w1", "r1", Flow},
		{"w2", "r1", Flow},
		{"r2", "w1", Anti},
		{"r2", "w2", Anti},
		{"r2", "r1", Input},
	}
	for _, c := range cases {
		if !hasEdge(g, c.from, c.to, c.kind) {
			t.Errorf("missing edge %s --%s--> %s\n%s", c.from, c.kind, c.to, g)
		}
	}
	if len(g.Edges) != len(cases) {
		t.Errorf("edges = %d, want %d:\n%s", len(g.Edges), len(cases), g)
	}
}

func TestL1ReferenceGraphs(t *testing.T) {
	a := analyze(t, loop.L1())
	gA := a.ReferenceGraph("A")
	if len(gA.Vertices) != 2 || len(gA.Edges) != 1 {
		t.Fatalf("G^A: %d vertices, %d edges", len(gA.Vertices), len(gA.Edges))
	}
	if !hasEdge(gA, "w1", "r1", Flow) {
		t.Errorf("G^A missing flow edge:\n%s", gA)
	}
	gB := a.ReferenceGraph("B")
	if len(gB.Vertices) != 1 || len(gB.Edges) != 0 {
		t.Errorf("G^B: %d vertices, %d edges", len(gB.Vertices), len(gB.Edges))
	}
	if !strings.Contains(gB.String(), "no dependences") {
		t.Errorf("G^B rendering: %s", gB)
	}
	gC := a.ReferenceGraph("C")
	if !hasEdge(gC, "r1", "r2", Input) {
		t.Errorf("G^C missing input edge:\n%s", gC)
	}
}

func TestGraphStringNotation(t *testing.T) {
	a := analyze(t, loop.L3())
	s := a.ReferenceGraph("A").String()
	for _, want := range []string{"G^A:", "δo", "δf", "δa", "δi", "t=["} {
		if !strings.Contains(s, want) {
			t.Errorf("graph rendering missing %q:\n%s", want, s)
		}
	}
}

func TestVertexByNameMissing(t *testing.T) {
	a := analyze(t, loop.L1())
	g := a.ReferenceGraph("A")
	if vertexByName(g, "w9") != -1 {
		t.Error("missing vertex found")
	}
	if hasEdge(g, "w9", "r1", Flow) {
		t.Error("edge from missing vertex")
	}
}
