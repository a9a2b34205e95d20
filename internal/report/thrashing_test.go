package report

import (
	"fmt"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/partition"
)

// msi is p private caches of unbounded capacity under MSI
// write-invalidate, over elements numbered 0 … n−1. traffic counts
// coherence events: lines a write invalidated in another cache, plus
// reads of a line another cache held modified.
type msi struct {
	cached  [][]bool
	owner   []int // 1 + the cache holding the line modified; 0 when memory is clean
	traffic int
}

func newMSI(p, n int) *msi {
	m := &msi{cached: make([][]bool, p), owner: make([]int, n)}
	for c := range m.cached {
		m.cached[c] = make([]bool, n)
	}
	return m
}

func (m *msi) access(c int, e int32, write bool) {
	m.cached[c][e] = true
	if !write {
		if m.owner[e] != 0 && m.owner[e] != c+1 {
			m.traffic++
			m.owner[e] = 0
		}
		return
	}
	for other := range m.cached {
		if other != c && m.cached[other][e] {
			m.cached[other][e] = false
			m.traffic++
		}
	}
	m.owner[e] = c + 1
}

// msiTraffic replays a nest's accesses — in lexicographic iteration
// order, per statement its reads then its write — with iteration pos on
// cache node[pos], and returns the coherence traffic.
func msiTraffic(ix *loop.Index, node []int, p int) int {
	m := newMSI(p, ix.NumElems())
	for pos := range ix.Points {
		for s, e := range ix.Row(pos) {
			m.access(node[pos], e, ix.Slots[s].Write)
		}
	}
	return m.traffic
}

func TestWriteInvalidatesOtherCaches(t *testing.T) {
	m := newMSI(2, 1)
	m.access(0, 0, false) // cache 0 holds the line
	m.access(1, 0, true)  // cache 1 writes: cache 0's copy is invalidated
	if m.traffic != 1 || m.cached[0][0] {
		t.Fatalf("after the write: traffic %d, cache 0 holds the line: %v", m.traffic, m.cached[0][0])
	}
	m.access(0, 0, false) // cache 0 reads the line cache 1 holds modified
	if m.traffic != 2 || m.owner[0] != 0 {
		t.Errorf("after the re-read: traffic %d, owner %d; want 2 and clean", m.traffic, m.owner[0])
	}
}

func TestPingPong(t *testing.T) {
	// Two caches alternately writing one element: the first write
	// installs the line, each of the following 9 invalidates the other
	// cache's copy — the thrashing pattern.
	m := newMSI(2, 1)
	for i := 0; i < 10; i++ {
		m.access(i%2, 0, true)
	}
	if m.traffic != 9 {
		t.Errorf("traffic = %d, want 9", m.traffic)
	}
}

// TestSharedWritesMatchMSIReplay: the shared-write count is zero exactly
// when an MSI cache replay of the same schedule moves no line, over the
// paper's loops and the parseable corpus, both strategies, both
// schedules.
func TestSharedWritesMatchMSIReplay(t *testing.T) {
	nests := map[string]*loop.Nest{"L1": loop.L1(), "L2": loop.L2(), "L3": loop.L3(), "L4": loop.L4(), "L5": loop.L5(4)}
	for i, src := range lang.Corpus() {
		if nest, err := lang.Parse(src); err == nil {
			nests[fmt.Sprintf("corpus[%d]", i)] = nest
		}
	}
	const p = thrashProcessors
	cases := 0
	for name, nest := range nests {
		for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate} {
			res, err := partition.Compute(nest, strat)
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			ix := res.Iter.Index
			for sched, node := range map[string][]int{"partition": placed(res, p), "round-robin": roundRobin(len(ix.Points), p)} {
				cases++
				count, traffic := sharedWrites(ix, node), msiTraffic(ix, node, p)
				if (count == 0) != (traffic == 0) {
					t.Errorf("%s %s %s: %d shared writes, MSI traffic %d", name, strat, sched, count, traffic)
				}
			}
		}
	}
	t.Logf("%d cases agree", cases)
}

// thrashRowsByCase indexes the thrashing section's rows as the
// simulator-era tests named them.
func thrashRowsByCase(t *testing.T) map[string]thrashRow {
	rows, err := thrashing(thrashProcessors)
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]thrashRow{}
	for _, r := range rows {
		abbrev := map[partition.Strategy]string{partition.NonDuplicate: "non-dup", partition.Duplicate: "dup"}[r.strat]
		by[r.loop+" "+abbrev] = r
	}
	return by
}

// TestPartitionPreventsThrashing is the paper's shared-memory claim: the
// communication-free schedule writes no element another processor
// touches, while round-robin scheduling of the same loops does.
func TestPartitionPreventsThrashing(t *testing.T) {
	rows := thrashRowsByCase(t)
	for _, c := range []struct{ name, row string }{
		{"L1 non-dup", "L1 non-dup"}, {"L4 non-dup", "L4 non-dup"}, {"L5 dup", "L5(4) dup"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, ok := rows[c.row]
			if !ok {
				t.Fatalf("no thrashing row %q", c.row)
			}
			if r.partition != 0 {
				t.Errorf("partitioned schedule: %d shared writes, want 0", r.partition)
			}
			if r.roundRobin <= 0 {
				t.Errorf("round-robin: %d shared writes, want > 0 (thrashing)", r.roundRobin)
			}
		})
	}
}

func TestL2DuplicateScheduleNote(t *testing.T) {
	// The duplicate strategy relies on PRIVATE copies; on shared memory
	// blocks that write the same element still collide: the duplicate
	// partition of L2 keeps shared writes (the anti-diagonal writes of
	// A), while the non-duplicate partition (sequential here) has none.
	rows := thrashRowsByCase(t)
	if r := rows["L2 dup"]; r.partition == 0 || r.roundRobin == 0 {
		t.Errorf("L2 duplicate: %d shared writes under the partition, %d round-robin; want both > 0", r.partition, r.roundRobin)
	}
	if r := rows["L2 non-dup"]; r.partition != 0 || r.roundRobin == 0 {
		t.Errorf("L2 non-duplicate: %d shared writes under the partition, %d round-robin; want 0 and > 0", r.partition, r.roundRobin)
	}
}
