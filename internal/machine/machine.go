// Package machine simulates the distributed-memory multicomputer of the
// paper's evaluation (a 16-processor Transputer mesh).
//
// The paper's cost model charges t_comp per loop iteration and
// t_start + x·t_comm to move x data items between neighboring processors;
// the host distributes initial data by pipelined unicast, row/column
// multicast, or whole-mesh broadcast. This package reproduces that model
// as an executable machine: node processors with strictly local memories
// (a read of an absent datum is an error — the operational meaning of
// "communication-free"), a host that performs the three distribution
// primitives while charging the paper's costs, and a parallel execution
// engine (one goroutine per node) that tracks per-node work.
package machine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// CostModel carries the paper's three timing constants, in seconds.
type CostModel struct {
	TComp  float64 // time per loop iteration
	TStart float64 // communication startup time
	TComm  float64 // time to transmit one datum between neighbors
}

// Transputer returns constants calibrated so that the simulated Table I
// matches the paper's measured Transputer times in shape: t_comp fits the
// sequential M=256 row (161.25 s / 256³), and t_start/t_comm are set to
// Transputer-era link characteristics (≈0.5 ms software startup, ≈2.3 µs
// per 4-byte word at ~1.7 MB/s).
func Transputer() CostModel {
	return CostModel{TComp: 9.611e-6, TStart: 5e-4, TComm: 2.3e-6}
}

// Mesh is a p₁×p₂ processor mesh.
type Mesh struct{ P1, P2 int }

// Size returns the processor count.
func (m Mesh) Size() int { return m.P1 * m.P2 }

// Diameter returns the mesh diameter (longest shortest path).
func (m Mesh) Diameter() int { return m.P1 + m.P2 - 2 }

// SquareMesh returns the √p×√p mesh for a perfect square p.
func SquareMesh(p int) (Mesh, error) {
	s := int(math.Round(math.Sqrt(float64(p))))
	if s*s != p {
		return Mesh{}, fmt.Errorf("machine: %d is not a perfect square", p)
	}
	return Mesh{P1: s, P2: s}, nil
}

// MeshFor lays the processors an assignment uses on a mesh: √n×√n when n
// is a perfect square, a 1×n row otherwise. Executors and cost estimates
// share it so a plan is priced on the topology it runs on.
func MeshFor(n int) Mesh {
	if sq, err := SquareMesh(n); err == nil {
		return sq
	}
	return Mesh{P1: 1, P2: n}
}

// Node is one processor with a strictly local memory.
type Node struct {
	ID  int
	mem map[string]float64

	mu         sync.Mutex
	iterations int64
	reads      int64
	writes     int64
	misses     []string
}

// Read fetches a local datum; a miss is recorded and returned as an error
// — on a real multicomputer it would be an interprocessor message, which
// the communication-free guarantee forbids.
func (n *Node) Read(key string) (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reads++
	v, ok := n.mem[key]
	if !ok {
		n.misses = append(n.misses, key)
		return 0, fmt.Errorf("machine: node %d: datum %s not in local memory", n.ID, key)
	}
	return v, nil
}

// Write stores a datum locally.
func (n *Node) Write(key string, v float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.writes++
	n.store(key, v)
}

// Preload stores initial data without touching the access counters.
func (n *Node) Preload(key string, v float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.store(key, v)
}

// store puts a datum in keyed memory, which exists from the first datum
// on: a kernel run keeps its state in dense buffers and never needs it.
func (n *Node) store(key string, v float64) {
	if n.mem == nil {
		n.mem = map[string]float64{}
	}
	n.mem[key] = v
}

// Has reports whether the datum is resident.
func (n *Node) Has(key string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.mem[key]
	return ok
}

// Value returns the local value (and whether it exists) without counting.
func (n *Node) Value(key string) (float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.mem[key]
	return v, ok
}

// MemSize returns the number of resident data.
func (n *Node) MemSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.mem)
}

// CountIteration charges one loop iteration to the node.
func (n *Node) CountIteration() {
	n.mu.Lock()
	n.iterations++
	n.mu.Unlock()
}

// AddIterations charges c loop iterations at once. The kernel
// executor counts per block rather than per iteration, so the counter
// mutex is taken once per block instead of once per iteration.
func (n *Node) AddIterations(c int64) {
	n.mu.Lock()
	n.iterations += c
	n.mu.Unlock()
}

// Stats summarizes a node's activity.
type Stats struct {
	Iterations   int64
	Reads        int64
	Writes       int64
	Misses       int
	ResidentData int
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		Iterations:   n.iterations,
		Reads:        n.reads,
		Writes:       n.writes,
		Misses:       len(n.misses),
		ResidentData: len(n.mem),
	}
}

// Machine is the simulated multicomputer: a host plus P nodes.
type Machine struct {
	Topology Mesh
	Cost     CostModel
	nodes    []Node

	mu          sync.Mutex
	distTime    float64
	messages    int64
	dataMoved   int64
	computeTime float64
	trace       *Trace
	chargeHook  ChargeHook
	faults      FaultInjector
}

// FaultInjector perturbs the host's distribution charges — the
// machine-level face of the chaos layer. It is consulted once per
// host→node unicast (SendTo / ChargeSendWords): resends > 0 models
// lost messages the host must retransmit (each retransmission costs a
// full message at the original wire time), delayS adds link latency.
// Injected faults only perturb the simulated clock and message
// accounting, never node state, so a communication-free partition's
// final state is unaffected by construction. Implementations must be
// safe for concurrent calls.
type FaultInjector interface {
	DistFault(node int) (resends int, delayS float64)
}

// SetFaultInjector registers the distribution fault injector (nil
// disables injection).
func (m *Machine) SetFaultInjector(fi FaultInjector) {
	m.mu.Lock()
	m.faults = fi
	m.mu.Unlock()
}

// ChargeHook observes every host-side distribution charge: the
// destination node (-1 for multicast/broadcast to several nodes), the
// message and word counts, and the simulated seconds the transfer
// occupied on the host lane. Hooks run outside the machine lock and
// must be safe for concurrent calls if the caller charges concurrently.
type ChargeHook func(node, messages, words int, seconds float64)

// SetChargeHook registers the hook (nil disables). The observability
// layer uses it to attribute simulated distribution traffic to spans
// without re-walking the partition.
func (m *Machine) SetChargeHook(h ChargeHook) {
	m.mu.Lock()
	m.chargeHook = h
	m.mu.Unlock()
}

// New builds a machine with the given mesh topology and cost model.
func New(topo Mesh, cost CostModel) *Machine {
	m := &Machine{Topology: topo, Cost: cost, nodes: make([]Node, topo.Size())}
	for i := range m.nodes {
		m.nodes[i].ID = i
	}
	return m
}

// NumNodes returns the processor count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// Node returns processor i.
func (m *Machine) Node(i int) *Node { return &m.nodes[i] }

// Datum is one named value to distribute.
type Datum struct {
	Key   string
	Value float64
}

// SendTo unicasts data from the host to one node: t_start + n·t_comm.
func (m *Machine) SendTo(node int, data []Datum) {
	for _, d := range data {
		m.nodes[node].Preload(d.Key, d.Value)
	}
	m.chargeUnicast(node, m.Cost.TStart+float64(len(data))*m.Cost.TComm, len(data))
}

// ChargeSendWords accounts a host→node unicast of the given word count
// at SendTo's cost without materializing any data in the node's keyed
// memory — the kernel executor keeps node state in dense buffers of
// its own and only needs the message charged.
func (m *Machine) ChargeSendWords(node, words int) {
	_ = &m.nodes[node] // bounds-check the node id like SendTo would
	m.chargeUnicast(node, m.Cost.TStart+float64(words)*m.Cost.TComm, words)
}

// chargeUnicast charges one host→node unicast of cost t carrying
// `words` delivered words, then applies any injected distribution
// faults: every lost message is retransmitted at full wire cost (extra
// message, no new words delivered), and link delay stretches the host
// lane without an extra message.
func (m *Machine) chargeUnicast(node int, t float64, words int) {
	m.charge(node, t, 1, words)
	m.mu.Lock()
	fi := m.faults
	m.mu.Unlock()
	if fi == nil {
		return
	}
	resends, delayS := fi.DistFault(node)
	if resends > 0 {
		m.charge(node, float64(resends)*t, resends, 0)
	}
	if delayS > 0 {
		m.charge(node, delayS, 0, 0)
	}
}

// MulticastInstall sends one stream of `words` data words to a set of
// nodes, installing per-node datum lists (a node hosting several block
// copies of the same element stores each copy; the wire carries the
// value once).
func (m *Machine) MulticastInstall(nodes []int, words int, install map[int][]Datum) {
	m.ChargeMulticast(len(nodes), words, m.install(install))
}

// BroadcastInstall is MulticastInstall across the whole mesh.
func (m *Machine) BroadcastInstall(words int, install map[int][]Datum) {
	m.ChargeBroadcast(words, m.install(install))
}

// install preloads the per-node datum lists and returns their total.
func (m *Machine) install(install map[int][]Datum) int {
	installed := 0
	for id, ds := range install {
		for _, d := range ds {
			m.nodes[id].Preload(d.Key, d.Value)
		}
		installed += len(ds)
	}
	return installed
}

// ChargeMulticast accounts one pipelined stream of `words` data words
// to `nodes` destinations that leaves `installed` copies behind, without
// materializing any data: t_start + (words + pipeline fill)·t_comm.
func (m *Machine) ChargeMulticast(nodes, words, installed int) {
	fill := 0
	if nodes > 1 {
		fill = nodes - 1
	}
	m.charge(-1, m.Cost.TStart+float64(words+fill)*m.Cost.TComm, 1, installed)
}

// ChargeBroadcast is ChargeMulticast across the whole mesh at broadcast
// cost: the stream crosses the mesh diameter, t_start +
// diameter·words·t_comm (the paper's 2√p·M²·t_comm term for broadcasting
// array B in L5′).
func (m *Machine) ChargeBroadcast(words, installed int) {
	dia := m.Topology.Diameter()
	if dia < 1 {
		dia = 1
	}
	m.charge(-1, m.Cost.TStart+float64(dia)*float64(words)*m.Cost.TComm, 1, installed)
}

func (m *Machine) charge(node int, t float64, msgs, words int) {
	m.mu.Lock()
	start := m.distTime
	m.distTime += t
	end := m.distTime
	m.messages += int64(msgs)
	m.dataMoved += int64(words)
	hook := m.chargeHook
	traced := m.trace != nil
	m.mu.Unlock()
	if traced {
		m.record("host", fmt.Sprintf("dist %d words", words), start, end)
	}
	if hook != nil {
		hook(node, msgs, words, t)
	}
}

// Run executes fn concurrently on every node (one goroutine each) and
// charges the compute phase as max over nodes of iterations·t_comp —
// nodes run in parallel, so the slowest one determines the wall clock.
// The first node error aborts the report.
func (m *Machine) Run(fn func(n *Node) error) error {
	return m.RunBounded(len(m.nodes), func(_ int, n *Node) error { return fn(n) })
}

// RunBounded is Run with at most `workers` node goroutines active at a
// time: nodes are dealt from a shared counter to a fixed pool, so a
// 1024-node simulation does not spawn 1024 goroutines. The worker
// index (0..workers-1) is passed to fn so callers can keep per-worker
// scratch buffers; each node is processed by exactly one worker.
// Cost accounting is identical to Run: the compute phase is charged as
// max over nodes of iterations·t_comp. A panic in fn stops the dealing
// and is raised again on the calling goroutine, where its caller can
// recover it, with the value of the lowest-numbered node that panicked.
func (m *Machine) RunBounded(workers int, fn func(worker int, n *Node) error) error {
	if workers <= 0 || workers > len(m.nodes) {
		workers = len(m.nodes)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(m.nodes))
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			defer func() {
				if v := recover(); v != nil {
					errs[i] = nodePanic{v}
					next.Store(int64(len(m.nodes)))
				}
			}()
			for {
				i = int(next.Add(1)) - 1
				if i >= len(m.nodes) {
					return
				}
				errs[i] = fn(w, &m.nodes[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if p, ok := err.(nodePanic); ok {
			panic(p.v)
		}
	}
	var maxIter int64
	for i := range m.nodes {
		nd := &m.nodes[i]
		if s := nd.Stats(); s.Iterations > maxIter {
			maxIter = s.Iterations
		}
	}
	m.mu.Lock()
	computeStart := m.distTime + m.computeTime
	m.computeTime += float64(maxIter) * m.Cost.TComp
	traced := m.trace != nil
	m.mu.Unlock()
	if traced {
		for i := range m.nodes {
			nd := &m.nodes[i]
			iters := nd.Stats().Iterations
			if iters == 0 {
				continue
			}
			m.record(fmt.Sprintf("PE%d", nd.ID), fmt.Sprintf("compute %d iters", iters),
				computeStart, computeStart+float64(iters)*m.Cost.TComp)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nodePanic carries a node's panic from its goroutine to RunBounded's
// caller.
type nodePanic struct{ v any }

func (p nodePanic) Error() string { return fmt.Sprint(p.v) }

// ChargeComputeIterations adds an analytic compute phase of the given
// per-node iteration counts (used by the large-M table harness, where
// executing 256³ iterations datum-by-datum is pointless — the count is
// exact either way).
func (m *Machine) ChargeComputeIterations(perNode []int64) {
	var max int64
	for _, c := range perNode {
		if c > max {
			max = c
		}
	}
	m.mu.Lock()
	m.computeTime += float64(max) * m.Cost.TComp
	m.mu.Unlock()
}

// AddComputeSeconds charges extra simulated compute seconds — the
// chaos layer's slow-node penalty. The charge is serialized onto the
// compute clock (a conservative upper bound: real degraded nodes only
// stretch their own lane).
func (m *Machine) AddComputeSeconds(s float64) {
	if s <= 0 {
		return
	}
	m.mu.Lock()
	m.computeTime += s
	m.mu.Unlock()
}

// DistributionTime returns the accumulated host-distribution time.
func (m *Machine) DistributionTime() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.distTime
}

// ComputeTime returns the accumulated parallel compute time.
func (m *Machine) ComputeTime() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.computeTime
}

// Elapsed returns total simulated time (distribution + compute).
func (m *Machine) Elapsed() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.distTime + m.computeTime
}

// Messages returns the number of host messages sent.
func (m *Machine) Messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.messages
}

// DataMoved returns the total words delivered to node memories.
func (m *Machine) DataMoved() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dataMoved
}

// InterNodeMessages returns the number of node-to-node messages during
// execution — always zero under a communication-free partition; a read
// miss is what such a message would have been.
func (m *Machine) InterNodeMessages() int64 {
	var total int64
	for i := range m.nodes {
		nd := &m.nodes[i]
		total += int64(nd.Stats().Misses)
	}
	return total
}
