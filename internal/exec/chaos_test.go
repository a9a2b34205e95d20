package exec

import (
	"errors"
	"testing"

	"commfree/internal/chaos"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/partition"
)

// chaosEngines names the parallel engines the chaos properties must
// hold on.
var chaosEngines = []string{"oracle", "kernel"}

// chaosRun executes the partition under the injector on the requested
// engine, asserting the run stays communication-free.
func chaosRun(t *testing.T, res *partition.Result, p int, inj *chaos.Injector, engine string) (*Report, error) {
	t.Helper()
	opts := Options{Chaos: inj}
	var rep *Report
	var err error
	if engine == "oracle" {
		rep, err = ParallelOpts(res, p, machine.Transputer(), opts)
	} else {
		rep, err = ParallelKernel(res, p, machine.Transputer(), opts)
	}
	if err != nil {
		return nil, err
	}
	if got := rep.Machine.InterNodeMessages(); got != 0 {
		t.Errorf("inter-node messages = %d under chaos, want 0", got)
	}
	return rep, nil
}

// Both engines, all strategies: a chaos run must end bit-identical to
// the sequential reference, with retries bounded by the schedule's
// per-block cap — the executable form of "blocks are atomic recovery
// units".
func TestChaosRecoversBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		nest  *loop.Nest
		strat partition.Strategy
	}{
		{"L1-nondup", loop.L1(), partition.NonDuplicate},
		{"L1-dup", loop.L1(), partition.Duplicate},
		{"L3-mindup", loop.L3(), partition.MinimalDuplicate},
		{"L4-nondup", loop.L4(), partition.NonDuplicate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := partition.Compute(tc.nest, tc.strat)
			if err != nil {
				t.Fatal(err)
			}
			want := Sequential(tc.nest, nil)
			var injected int64
			for seed := int64(1); seed <= 20; seed++ {
				for _, engine := range chaosEngines {
					inj := chaos.Default(seed)
					rep, err := chaosRun(t, res, 4, inj, engine)
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, engine, err)
					}
					if err := Equal(want, rep.Final); err != nil {
						t.Fatalf("seed %d %s: state diverged: %v", seed, engine, err)
					}
					maxRetries := int64(len(res.Iter.Blocks) * inj.MaxFailuresPerBlock())
					if rep.Chaos.Retries > maxRetries {
						t.Fatalf("seed %d %s: %d retries exceed bound %d", seed, engine, rep.Chaos.Retries, maxRetries)
					}
					injected += rep.Chaos.Faults
				}
			}
			if injected == 0 {
				t.Error("no faults injected across 20 seeds — chaos test is vacuous")
			}
		})
	}
}

// Post-commit crashes must be recovered through the completion marker,
// not re-execution: with every block failing exactly once post-commit,
// each block runs exactly once, so total iterations match a fault-free
// run exactly (commits are exactly-once).
func TestChaosPostCommitIdempotent(t *testing.T) {
	cfg := chaos.Config{BlockFailProb: 1, MaxBlockFails: 1, PostCommitProb: 1}
	for _, strat := range []partition.Strategy{partition.NonDuplicate, partition.Duplicate} {
		res, err := partition.Compute(loop.L1(), strat)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Parallel(res, 4, machine.Transputer())
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, c := range fresh.IterationsPerNode {
			want += c
		}
		for _, engine := range chaosEngines {
			inj := chaos.NewInjector(chaos.NewSchedule(5, cfg))
			rep, err := chaosRun(t, res, 4, inj, engine)
			if err != nil {
				t.Fatal(err)
			}
			var got int64
			for _, c := range rep.IterationsPerNode {
				got += c
			}
			if got != want {
				t.Errorf("%s %s: post-commit recovery re-executed work: %d iterations, want %d", strat, engine, got, want)
			}
			if rep.Chaos.PostCommit == 0 {
				t.Errorf("%s %s: no post-commit faults fired", strat, engine)
			}
			if err := Equal(Sequential(loop.L1(), nil), rep.Final); err != nil {
				t.Errorf("%s %s: %v", strat, engine, err)
			}
		}
	}
}

// Mid-compute crashes re-execute: total iterations grow by exactly the
// crashed prefixes, never shrink below the fault-free count.
func TestChaosMidCrashReexecutes(t *testing.T) {
	cfg := chaos.Config{BlockFailProb: 1, MaxBlockFails: 2}
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(loop.L1(), nil)
	for _, engine := range chaosEngines {
		inj := chaos.NewInjector(chaos.NewSchedule(9, cfg))
		rep, err := chaosRun(t, res, 4, inj, engine)
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, c := range rep.IterationsPerNode {
			got += c
		}
		if got < 16 {
			t.Errorf("%s: %d iterations under retry, want >= 16", engine, got)
		}
		if rep.Chaos.Retries == 0 {
			t.Errorf("%s: no retries recorded", engine)
		}
		if err := Equal(want, rep.Final); err != nil {
			t.Errorf("%s: %v", engine, err)
		}
	}
}

// A persistent schedule must exhaust the per-block retry budget and
// surface *chaos.FaultError on both engines.
func TestChaosPersistentExhaustsRetries(t *testing.T) {
	res, err := partition.Compute(loop.L1(), partition.NonDuplicate)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range chaosEngines {
		inj := chaos.NewInjector(chaos.NewSchedule(1, chaos.Config{BlockFailProb: 1, MaxBlockFails: 1 << 20}))
		_, err := chaosRun(t, res, 4, inj, engine)
		var fe *chaos.FaultError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *chaos.FaultError", engine, err)
		}
	}
}

// The same seed must reproduce the same run: identical final state and
// identical injection counters, regardless of goroutine interleaving.
func TestChaosDeterministicReplay(t *testing.T) {
	res, err := partition.Compute(loop.L5(4), partition.Duplicate)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range chaosEngines {
		a, err := chaosRun(t, res, 4, chaos.Default(42), engine)
		if err != nil {
			t.Fatal(err)
		}
		b, err := chaosRun(t, res, 4, chaos.Default(42), engine)
		if err != nil {
			t.Fatal(err)
		}
		if err := Equal(a.Final, b.Final); err != nil {
			t.Errorf("%s: replay diverged: %v", engine, err)
		}
		if a.Chaos != b.Chaos {
			t.Errorf("%s: replay stats diverged: %+v vs %+v", engine, a.Chaos, b.Chaos)
		}
	}
}
