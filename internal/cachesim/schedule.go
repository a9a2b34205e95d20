package cachesim

// Loop-schedule drivers: replay a nest's access trace under a CPU
// schedule and count the resulting coherence traffic.

import (
	"fmt"

	"commfree/internal/assign"
	"commfree/internal/loop"
	"commfree/internal/partition"
	"commfree/internal/transform"
)

// ScheduleFunc maps an iteration to the CPU that executes it.
type ScheduleFunc func(iter []int64) int

// Replay runs the nest's access trace (reads then write per statement, in
// lexicographic iteration order) on the simulator under the schedule.
func Replay(sim *Sim, nest *loop.Nest, sched ScheduleFunc) {
	for _, it := range nest.Iterations() {
		cpu := sched(it)
		for _, st := range nest.Body {
			for _, r := range st.Reads {
				sim.Access(cpu, r.Array+fmt.Sprint(r.Index(it)), false)
			}
			sim.Access(cpu, st.Write.Array+fmt.Sprint(st.Write.Index(it)), true)
		}
	}
}

// RoundRobinSchedule interleaves iterations over p CPUs — the naive
// shared-memory scheduling that causes cache ping-pong.
func RoundRobinSchedule(p int) ScheduleFunc {
	i := 0
	return func([]int64) int {
		cpu := i % p
		i++
		return cpu
	}
}

// PartitionSchedule assigns each iteration to the CPU owning its block
// under the communication-free partition.
func PartitionSchedule(res *partition.Result, p int) (ScheduleFunc, error) {
	tr, err := transform.Transform(res.Analysis.Nest, res.Psi)
	if err != nil {
		return nil, err
	}
	asg := assign.Assign(tr, p)
	// Block-granular: every iteration of a block runs on the CPU that
	// owns the block's base point (equal to the per-iteration owner for
	// coset strategies; required for MARS's grouped blocks).
	blockCPU := make(map[int]int, len(res.Iter.Blocks))
	for _, b := range res.Iter.Blocks {
		blockCPU[b.ID] = asg.OwnerOf(b.Base)
	}
	return func(it []int64) int {
		return blockCPU[res.Iter.BlockOf(it).ID]
	}, nil
}

// Compare runs both schedules of a nest on fresh simulators and returns
// the coherence-traffic totals (partitioned, round-robin).
func Compare(nest *loop.Nest, strat partition.Strategy, p int, cfg Config) (partitioned, roundRobin int64, err error) {
	res, err := partition.Compute(nest, strat)
	if err != nil {
		return 0, 0, err
	}
	sched, err := PartitionSchedule(res, p)
	if err != nil {
		return 0, 0, err
	}
	simP := New(p, cfg)
	Replay(simP, nest, sched)
	simR := New(p, cfg)
	Replay(simR, nest, RoundRobinSchedule(p))
	return simP.CoherenceTraffic(), simR.CoherenceTraffic(), nil
}
