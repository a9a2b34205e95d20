package deps

// This file implements Definition 6: the data reference graph G^A of an
// array. Vertices are the write references (W^A, in statement order) and
// the read references (R^A); edges are the data dependences that actually
// exist between reference pairs:
//
//  1. (w_i, w_j) output dependences for i < j,
//  2. (r_i, r_j) input dependences for i < j,
//  3. (w_i, r_j) flow dependences, and
//  4. (r_j, w_i) antidependences,
//
// matching the paper's Fig. 6 template; Fig. 7 is this graph computed for
// loop L3.

import (
	"fmt"
	"sort"
	"strings"
)

// Vertex is one node of a data reference graph.
type Vertex struct {
	// Name is the paper's label: w1, w2, … for writes, r1, r2, … for
	// reads, numbered in statement order.
	Name   string
	Access Access
}

// Edge is a dependence edge of the graph.
type Edge struct {
	From, To int // vertex indices
	Kind     Kind
	// Distance is the unique dependence distance when available.
	Distance []int64
}

// Graph is the data reference graph G^A = (V^A, E^A) of one array.
type Graph struct {
	Array    string
	Vertices []Vertex
	Edges    []Edge
}

// ReferenceGraph builds G^A from the analysis' dependences.
func (a *Analysis) ReferenceGraph(array string) *Graph {
	g := &Graph{Array: array}
	// Vertices: writes first (statement order), then reads (statement
	// order, then slot order) — the paper's W^A ∪ R^A labeling.
	accs := accesses(a.Nest, array)
	var writes, reads []Access
	for _, acc := range accs {
		if acc.IsWrite {
			writes = append(writes, acc)
		} else {
			reads = append(reads, acc)
		}
	}
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].Stmt < writes[j].Stmt })
	sort.SliceStable(reads, func(i, j int) bool {
		if reads[i].Stmt != reads[j].Stmt {
			return reads[i].Stmt < reads[j].Stmt
		}
		return reads[i].ReadIdx < reads[j].ReadIdx
	})
	index := map[string]int{}
	for i, w := range writes {
		g.Vertices = append(g.Vertices, Vertex{Name: fmt.Sprintf("w%d", i+1), Access: w})
		index[accessKey(w)] = len(g.Vertices) - 1
	}
	for i, r := range reads {
		g.Vertices = append(g.Vertices, Vertex{Name: fmt.Sprintf("r%d", i+1), Access: r})
		index[accessKey(r)] = len(g.Vertices) - 1
	}
	for _, d := range a.Dependences(array) {
		from, okF := index[accessKey(d.Src)]
		to, okT := index[accessKey(d.Dst)]
		if !okF || !okT {
			continue
		}
		g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: d.Kind, Distance: d.Distance})
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].From != g.Edges[j].From {
			return g.Edges[i].From < g.Edges[j].From
		}
		if g.Edges[i].To != g.Edges[j].To {
			return g.Edges[i].To < g.Edges[j].To
		}
		return g.Edges[i].Kind < g.Edges[j].Kind
	})
	return g
}

func accessKey(a Access) string {
	return fmt.Sprintf("%d|%v|%d", a.Stmt, a.IsWrite, a.ReadIdx)
}

// String renders the graph in the paper's δ notation, one edge per line:
//
//	G^A: w1 = S1 write A[i1,i2], …
//	  w1 --δo--> w2
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G^%s:\n", g.Array)
	for _, v := range g.Vertices {
		fmt.Fprintf(&b, "  %s = %s\n", v.Name, v.Access)
	}
	if len(g.Edges) == 0 {
		b.WriteString("  (no dependences)\n")
		return b.String()
	}
	for _, e := range g.Edges {
		sym := map[Kind]string{Flow: "δf", Anti: "δa", Output: "δo", Input: "δi"}[e.Kind]
		dist := ""
		if e.Distance != nil {
			dist = fmt.Sprintf("  t=%v", e.Distance)
		}
		fmt.Fprintf(&b, "  %s --%s--> %s%s\n", g.Vertices[e.From].Name, sym, g.Vertices[e.To].Name, dist)
	}
	return b.String()
}
