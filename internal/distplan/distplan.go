// Package distplan plans the host-to-node distribution of initial data
// for a partitioned loop. Section IV chooses distribution primitives by
// hand for L5′ and L5″ (pipelined unicast of A's rows, broadcast of the
// whole of B, row/column multicasts); this package derives the same
// decisions automatically from the partition:
//
//   - group array elements by their consumer set (the set of processors
//     whose blocks read them);
//   - a group consumed by every processor is broadcast;
//   - a group consumed by several processors is multicast;
//   - a group consumed by one processor is appended to that processor's
//     pipelined unicast.
//
// The plan executes against the simulated machine, loading real values
// and charging the paper's costs.
package distplan

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"commfree/internal/assign"
	"commfree/internal/exec"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// StepKind is a distribution primitive.
type StepKind int

const (
	// Unicast sends a group to a single processor.
	Unicast StepKind = iota
	// Multicast sends one group to several processors.
	Multicast
	// Broadcast sends one group to all processors.
	Broadcast
)

// String names the primitive.
func (k StepKind) String() string {
	switch k {
	case Unicast:
		return "unicast"
	case Multicast:
		return "multicast"
	case Broadcast:
		return "broadcast"
	}
	return fmt.Sprintf("StepKind(%d)", int(k))
}

// Step is one host send: a stream of element values delivered to a node
// set, where each node installs the values under the private keys of its
// resident block copies (several copies per node cost nothing extra on
// the wire).
type Step struct {
	Kind  StepKind
	Nodes []int // destination processors, sorted
	// Words is the wire size of the stream (distinct element values).
	Words int
	// Delivered is the number of block-private copies installed.
	Delivered int
	// elems are the streamed elements (ids of the partition's Index);
	// Execute names their copies.
	elems []int32
}

// Plan is the full distribution schedule.
type Plan struct {
	Steps []Step
	// Nodes is the number of processors the plan addresses.
	Nodes int
	// BlockNode is the processor of every block, indexed by block ID − 1.
	// Placement is block-granular (node of the block's base point):
	// identical to the per-forall owner for coset strategies, and the
	// only correct choice for MARS blocks that span forall points.
	BlockNode []int

	res *partition.Result
	// consumers[first[e]:first[e+1]] are the blocks (ID − 1, ascending)
	// that read element e.
	first, consumers []int32
}

// BuildFor derives the plan for a partitioning result under a block
// placement (assign.Place(res.Iter.Q, p), or an assignment's). The
// consumer set of an element is the set of processors whose iterations
// read it (redundant computations excluded under minimal strategies).
func BuildFor(res *partition.Result, place assign.Placement) *Plan {
	ix, blocks := res.Iter.Index, res.Iter.Blocks
	used := place.NumProcessors()
	plan := &Plan{Nodes: used, BlockNode: make([]int, len(blocks)), res: res}
	for bi, b := range blocks {
		plan.BlockNode[bi] = place.OwnerOf(b.Base)
	}

	// Every (element, reading block) pair once: one pass counts them per
	// element, a second places them, blocks ascending within an element.
	plan.first = make([]int32, ix.NumElems()+1)
	stamp := make([]int32, ix.NumElems()) // last block (1-based) that read the element
	readPairs(res, stamp, plan.first[1:], nil)
	for e := 0; e < ix.NumElems(); e++ {
		plan.first[e+1] += plan.first[e]
	}
	plan.consumers = make([]int32, plan.first[ix.NumElems()])
	clear(stamp)
	readPairs(res, stamp, slices.Clone(plan.first[:ix.NumElems()]), plan.consumers)

	// Group elements by identical consumer NODE sets (the wire pattern).
	// A set of one node joins that node's pipelined unicast. A larger set
	// is a multicast (a broadcast when it is every node), looked up by its
	// nodes' bytes and labelled "[n1 n2 …]" once; the labels fix the step
	// order, and with it the order simulated times are summed in.
	type group struct {
		label     string
		nodes     []int
		elems     []int32
		delivered int
	}
	unicast := make([]group, used)
	groups := map[string]*group{}
	var nodes []int
	var key []byte
	for e := int32(0); int(e) < ix.NumElems(); e++ {
		readers := plan.consumers[plan.first[e]:plan.first[e+1]]
		if len(readers) == 0 {
			continue // written only
		}
		n0 := plan.BlockNode[readers[0]]
		g := &unicast[n0]
		for _, b := range readers[1:] {
			if plan.BlockNode[b] != n0 {
				g = nil
				break
			}
		}
		if g == nil {
			nodes = nodes[:0]
			for _, b := range readers {
				nodes = append(nodes, plan.BlockNode[b])
			}
			slices.Sort(nodes)
			nodes = slices.Compact(nodes)
			key = key[:0]
			for _, n := range nodes {
				key = binary.LittleEndian.AppendUint32(key, uint32(n))
			}
			if g = groups[string(key)]; g == nil {
				g = &group{label: label(nodes), nodes: slices.Clone(nodes)}
				groups[string(key)] = g
			}
		}
		g.elems = append(g.elems, e)
		g.delivered += len(readers)
	}
	multi := make([]*group, 0, len(groups))
	for _, g := range groups {
		multi = append(multi, g)
	}
	slices.SortFunc(multi, func(a, b *group) int { return strings.Compare(a.label, b.label) })
	for _, g := range multi {
		kind := Multicast
		if len(g.nodes) == used {
			kind = Broadcast
		}
		plan.Steps = append(plan.Steps, Step{Kind: kind, Nodes: g.nodes, Words: len(g.elems), Delivered: g.delivered, elems: g.elems})
	}
	for n, g := range unicast {
		if len(g.elems) > 0 {
			plan.Steps = append(plan.Steps, Step{Kind: Unicast, Nodes: []int{n}, Words: len(g.elems), Delivered: g.delivered, elems: g.elems})
		}
	}
	return plan
}

// label renders a node set as "[n1 n2 …]".
func label(nodes []int) string {
	b := []byte{'['}
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(append(b, ']'))
}

// readPairs walks the blocks' non-redundant reads and meets every
// distinct (element, block) pair once, in block order: with consumers
// nil it counts the pair at at[e]; otherwise it also writes the block at
// consumers[at[e]] before advancing at[e]. stamp must be zero on entry.
func readPairs(res *partition.Result, stamp, at, consumers []int32) {
	ix, red := res.Iter.Index, res.Redundant
	for bi, b := range res.Iter.Blocks {
		mark := int32(bi + 1)
		for _, pos := range b.Pos {
			row := ix.Row(int(pos))
			for s := range res.Iter.Nest.Body {
				if red != nil && red.RedundantAt(s, int(pos)) {
					continue
				}
				for _, e := range row[ix.First[s] : ix.First[s+1]-1] {
					if stamp[e] == mark {
						continue
					}
					stamp[e] = mark
					if consumers != nil {
						consumers[at[e]] = int32(bi)
					}
					at[e]++
				}
			}
		}
	}
}

// Charge accounts the plan's wire costs on a machine without installing
// any data — all a cost estimate needs.
func (p *Plan) Charge(m *machine.Machine) {
	for _, s := range p.Steps {
		if s.Kind == Broadcast {
			m.ChargeBroadcast(s.Words, s.Delivered)
		} else { // Multicast and Unicast share the pipelined stream model
			m.ChargeMulticast(len(s.Nodes), s.Words, s.Delivered)
		}
	}
}

// Execute performs the plan on a machine, installing block-private
// copies and charging the wire costs.
func (p *Plan) Execute(m *machine.Machine) {
	ix, blocks := p.res.Iter.Index, p.res.Iter.Blocks
	for _, s := range p.Steps {
		install := map[int][]machine.Datum{}
		for _, e := range s.elems {
			array, idx := ix.Elem(e)
			key, value := exec.Key(array, idx), exec.InitValue(array, idx)
			for _, b := range p.consumers[p.first[e]:p.first[e+1]] {
				n := p.BlockNode[b]
				install[n] = append(install[n], machine.Datum{Key: exec.BlockKey(blocks[b].ID, key), Value: value})
			}
		}
		if s.Kind == Broadcast {
			m.BroadcastInstall(s.Words, install)
		} else {
			m.MulticastInstall(s.Nodes, s.Words, install)
		}
	}
}

// Stats summarizes the plan.
type Stats struct {
	Unicasts, Multicasts, Broadcasts int
	Words                            int // Σ wire words
	DeliveredWords                   int // Σ installed copies
}

// Stats computes the plan summary.
func (p *Plan) Stats() Stats {
	var st Stats
	for _, s := range p.Steps {
		switch s.Kind {
		case Broadcast:
			st.Broadcasts++
		case Multicast:
			st.Multicasts++
		default:
			st.Unicasts++
		}
		st.Words += s.Words
		st.DeliveredWords += s.Delivered
	}
	return st
}

// String renders the plan.
func (p *Plan) String() string {
	var b strings.Builder
	st := p.Stats()
	fmt.Fprintf(&b, "distribution plan for %d processors: %d unicasts, %d multicasts, %d broadcasts (%d words, %d delivered)\n",
		p.Nodes, st.Unicasts, st.Multicasts, st.Broadcasts, st.Words, st.DeliveredWords)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "  %s → %v: %d words\n", s.Kind, s.Nodes, s.Words)
	}
	return b.String()
}

// ParallelPlanned executes a partitioned loop like exec.Parallel but with
// plan-based distribution (multicast groups instead of per-node
// unicasts), returning the plan alongside the report.
func ParallelPlanned(res *partition.Result, p int, cost machine.CostModel) (*exec.Report, *Plan, error) {
	plan := BuildFor(res, assign.Place(res.Iter.Q, p))
	mach := machine.New(machine.MeshFor(plan.Nodes), cost)
	plan.Execute(mach)
	rep, err := exec.RunDistributed(res, mach, plan.BlockNode, nil, exec.Options{})
	if err != nil {
		return nil, nil, err
	}
	return rep, plan, nil
}
