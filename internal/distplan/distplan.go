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
	// BlockNode is the processor of every block, indexed by block ID − 1,
	// and Loads the iterations of every processor the plan addresses:
	// the placement's Blocks.
	BlockNode []int
	Loads     []int64

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
	plan := &Plan{res: res}
	plan.BlockNode, plan.Loads = place.Blocks(res.Iter)
	ix, used := res.Iter.Index, len(plan.Loads)

	// Every (element, reading block) pair once: one walk of the reads
	// meets them in block order and counts them per element, then the
	// pairs are distributed by element, blocks ascending within one.
	// first[e] runs as element e's cursor, ending at its end, which is
	// where e+1 starts.
	scratch := make([]int32, ix.NumElems())
	plan.first = make([]int32, ix.NumElems()+1)
	elems, ends := readPairs(res, plan.first[1:], scratch)
	for e := 0; e < ix.NumElems(); e++ {
		plan.first[e+1] += plan.first[e]
	}
	plan.consumers = make([]int32, len(elems))
	start := int32(0)
	for bi, end := range ends {
		for _, e := range elems[start:end] {
			plan.consumers[plan.first[e]] = int32(bi)
			plan.first[e]++
		}
		start = end
	}
	copy(plan.first[1:], plan.first)
	plan.first[0] = 0

	// Group elements by identical consumer NODE sets (the wire pattern),
	// each found by stamping its readers' nodes. A set of one node joins
	// that node's pipelined unicast. A larger set is a multicast (a
	// broadcast when it is every node), looked up by its nodes' bytes and
	// labelled "[n1 n2 …]" once; the labels fix the step order, and with
	// it the order simulated times are summed in.
	type group struct {
		label            string
		nodes            []int
		words, delivered int
		elems            []int32
	}
	groups := make([]group, used) // the unicasts, node by node, then the multicasts as met
	multicast := map[string]int32{}
	of := scratch // 1 + the group of every element read
	clear(of)
	stamp := make([]int32, used) // last element (1-based) whose readers include the node
	var nodes []int
	var key []byte
	read := 0
	for e := int32(0); int(e) < ix.NumElems(); e++ {
		readers := plan.consumers[plan.first[e]:plan.first[e+1]]
		if len(readers) == 0 {
			continue // written only
		}
		nodes = nodes[:0]
		for _, b := range readers {
			if n := plan.BlockNode[b]; stamp[n] != e+1 {
				stamp[n] = e + 1
				nodes = append(nodes, n)
			}
		}
		gi := int32(nodes[0])
		if len(nodes) > 1 {
			slices.Sort(nodes)
			key = key[:0]
			for _, n := range nodes {
				key = binary.LittleEndian.AppendUint32(key, uint32(n))
			}
			var ok bool
			if gi, ok = multicast[string(key)]; !ok {
				gi = int32(len(groups))
				groups = append(groups, group{label: label(nodes), nodes: slices.Clone(nodes)})
				multicast[string(key)] = gi
			}
		}
		of[e] = gi + 1
		groups[gi].words++
		groups[gi].delivered += len(readers)
		read++
	}
	// Every group's elements, ascending, sliced from one array.
	members := make([]int32, read)
	for i := range groups {
		g := &groups[i]
		g.elems, members = members[:0:g.words], members[g.words:]
	}
	for e, gi := range of {
		if gi > 0 {
			g := &groups[gi-1]
			g.elems = append(g.elems, int32(e))
		}
	}
	multi := groups[used:]
	slices.SortFunc(multi, func(a, b group) int { return strings.Compare(a.label, b.label) })
	for _, g := range multi {
		kind := Multicast
		if len(g.nodes) == used {
			kind = Broadcast
		}
		plan.Steps = append(plan.Steps, Step{Kind: kind, Nodes: g.nodes, Words: g.words, Delivered: g.delivered, elems: g.elems})
	}
	for n, g := range groups[:used] {
		if g.words > 0 {
			plan.Steps = append(plan.Steps, Step{Kind: Unicast, Nodes: []int{n}, Words: g.words, Delivered: g.delivered, elems: g.elems})
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

// readPairs walks the blocks' non-redundant reads once and meets every
// distinct (element, block) pair once, in block order: it counts the
// pair at count[e] and lists the block's elements, in the order met, as
// elems[ends[bi−1]:ends[bi]] (from 0 for the first block). stamp, one
// zeroed word per element, keeps the last block (1-based) that read it.
func readPairs(res *partition.Result, count, stamp []int32) (elems, ends []int32) {
	ix, red := res.Iter.Index, res.Redundant
	ends = make([]int32, len(res.Iter.Blocks))
	// A block meets at most its reads, and at most every element, once.
	reads, most := len(ix.Slots)-len(res.Iter.Nest.Body), 0
	for _, b := range res.Iter.Blocks {
		most += min(b.Size()*reads, ix.NumElems())
	}
	elems = make([]int32, 0, most)
	for bi, b := range res.Iter.Blocks {
		mark := int32(bi + 1)
		for _, pos := range b.Pos {
			row := ix.Row(int(pos))
			for s := range res.Iter.Nest.Body {
				if red != nil && red.RedundantAt(s, int(pos)) {
					continue
				}
				for _, e := range row[ix.First[s] : ix.First[s+1]-1] {
					if stamp[e] != mark {
						stamp[e] = mark
						count[e]++
						elems = append(elems, e)
					}
				}
			}
		}
		ends[bi] = int32(len(elems))
	}
	return elems, ends
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
		len(p.Loads), st.Unicasts, st.Multicasts, st.Broadcasts, st.Words, st.DeliveredWords)
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
	mach := machine.New(machine.MeshFor(len(plan.Loads)), cost)
	plan.Execute(mach)
	rep, err := exec.RunDistributed(res, mach, plan.BlockNode, nil, exec.Options{})
	if err != nil {
		return nil, nil, err
	}
	return rep, plan, nil
}
