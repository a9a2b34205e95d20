package chaos

import (
	"errors"
	"testing"
)

// Two schedules from the same seed must agree on every decision — the
// replayability the whole chaos layer rests on.
func TestScheduleDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := NewSchedule(seed, DefaultConfig())
		b := NewSchedule(seed, DefaultConfig())
		for epoch := 0; epoch < 3; epoch++ {
			for id := 0; id < 64; id++ {
				if a.BlockFailures(epoch, id) != b.BlockFailures(epoch, id) {
					t.Fatalf("seed %d: BlockFailures(%d,%d) differs", seed, epoch, id)
				}
				if a.NodeDelayS(epoch, id) != b.NodeDelayS(epoch, id) ||
					a.MsgResends(epoch, id) != b.MsgResends(epoch, id) ||
					a.MsgDelayS(epoch, id) != b.MsgDelayS(epoch, id) {
					t.Fatalf("seed %d: node/link decisions differ", seed)
				}
				for at := 0; at < 4; at++ {
					if a.PostCommit(epoch, id, at) != b.PostCommit(epoch, id, at) {
						t.Fatalf("seed %d: PostCommit differs", seed)
					}
					if a.Cut(epoch, id, at, 17) != b.Cut(epoch, id, at, 17) {
						t.Fatalf("seed %d: Cut differs", seed)
					}
				}
			}
		}
	}
}

// Decisions must be independent of call order (interleaving
// independence): asking about block 7 first and block 3 second gives
// the same answers as the reverse — the schedule is a pure function.
func TestScheduleOrderIndependent(t *testing.T) {
	s := NewSchedule(99, DefaultConfig())
	first7 := s.BlockFailures(0, 7)
	first3 := s.BlockFailures(0, 3)
	s2 := NewSchedule(99, DefaultConfig())
	again3 := s2.BlockFailures(0, 3)
	again7 := s2.BlockFailures(0, 7)
	if first7 != again7 || first3 != again3 {
		t.Fatal("schedule decisions depend on query order")
	}
}

func TestScheduleBounds(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 200; seed++ {
		s := NewSchedule(seed, cfg)
		for id := 0; id < 32; id++ {
			if n := s.BlockFailures(0, id); n < 0 || n > cfg.MaxBlockFails {
				t.Fatalf("BlockFailures out of bounds: %d (cap %d)", n, cfg.MaxBlockFails)
			}
			if d := s.NodeDelayS(0, id); d < 0 || d > cfg.MaxSlowS {
				t.Fatalf("NodeDelayS out of bounds: %g", d)
			}
			if r := s.MsgResends(0, id); r < 0 || r > cfg.MaxMsgResends {
				t.Fatalf("MsgResends out of bounds: %d", r)
			}
			if d := s.MsgDelayS(0, id); d < 0 || d > cfg.MaxMsgDelayS {
				t.Fatalf("MsgDelayS out of bounds: %g", d)
			}
			for at := 0; at < 3; at++ {
				if c := s.Cut(0, id, at, 10); c < 0 || c > 10 {
					t.Fatalf("Cut out of bounds: %d", c)
				}
			}
		}
	}
}

// The default mix must actually fire every fault kind across a modest
// seed range — a vacuous schedule would make the conformance chaos
// dimension prove nothing.
func TestScheduleNotVacuous(t *testing.T) {
	var fails, post, slow, loss, delay int
	for seed := int64(0); seed < 100; seed++ {
		s := NewSchedule(seed, DefaultConfig())
		for id := 0; id < 16; id++ {
			if n := s.BlockFailures(0, id); n > 0 {
				fails++
				if s.PostCommit(0, id, 0) {
					post++
				}
			}
			if s.NodeDelayS(0, id) > 0 {
				slow++
			}
			if s.MsgResends(0, id) > 0 {
				loss++
			}
			if s.MsgDelayS(0, id) > 0 {
				delay++
			}
		}
	}
	for name, n := range map[string]int{
		"block failures": fails, "post-commit": post, "slow nodes": slow,
		"message loss": loss, "message delay": delay,
	} {
		if n == 0 {
			t.Errorf("fault kind %q never fired across 100 seeds", name)
		}
	}
}

// Epochs decorrelate: a block failing in epoch 0 must not fail in
// every later epoch under a sub-certain probability — the property the
// service-level retry relies on to clear transient faults.
func TestEpochsDecorrelate(t *testing.T) {
	s := NewSchedule(7, DefaultConfig())
	cleared := false
	for id := 0; id < 64 && !cleared; id++ {
		if s.BlockFailures(0, id) > 0 && s.BlockFailures(1, id) == 0 {
			cleared = true
		}
	}
	if !cleared {
		t.Error("no failing block cleared between epochs 0 and 1")
	}
}

func TestInjectorCountersAndNilSafety(t *testing.T) {
	var nilInj *Injector
	if f, p := nilInj.BlockFault(1, 0); f || p {
		t.Error("nil injector injected a fault")
	}
	if r, d := nilInj.DistFault(0); r != 0 || d != 0 {
		t.Error("nil injector injected a dist fault")
	}
	if nilInj.NodeDelayS(0) != 0 || nilInj.Jitter(1) != 0 {
		t.Error("nil injector not inert")
	}
	nilInj.CountRetry()
	nilInj.NextEpoch()
	if st := nilInj.Stats(); st != (Stats{}) {
		t.Errorf("nil injector stats = %+v", st)
	}

	in := NewInjector(NewSchedule(11, persistent))
	if fail, _ := in.BlockFault(5, 0); !fail {
		t.Fatal("persistent config did not fail attempt 0")
	}
	in.CountRetry()
	st := in.Stats()
	if st.Faults != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 1 fault / 1 retry", st)
	}
}

// persistent is a config whose block failures outlast any per-block
// retry cap: every parallel run under it fails.
var persistent = Config{BlockFailProb: 1, MaxBlockFails: 1 << 20}

// Persistent schedules must out-fail any realistic per-block retry cap.
func TestPersistentOutlastsRetries(t *testing.T) {
	in := NewInjector(NewSchedule(3, persistent))
	for attempt := 0; attempt < 64; attempt++ {
		if fail, _ := in.BlockFault(0, attempt); !fail {
			t.Fatalf("persistent schedule cleared at attempt %d", attempt)
		}
	}
}

func TestFaultErrorUnwrapsViaAs(t *testing.T) {
	err := error(&FaultError{Node: 1, Block: 2, Attempt: 3})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Block != 2 {
		t.Fatalf("errors.As failed on %v", err)
	}
}

// Store-fault schedules must be pure in their identities: the same
// (seed, seq) or (seed, epoch, key) always decides the same way, a
// zero-prob config never fires, and torn writes always land a strict
// prefix so the CRC envelope catches them.
func TestStoreFaultSchedules(t *testing.T) {
	s := NewSchedule(7, Config{TornWriteProb: 0.2, MigrationDropProb: 0.2})
	torn, whole := 0, 0
	for seq := int64(0); seq < 400; seq++ {
		n1, t1 := s.TornWrite(seq, 1000)
		n2, t2 := s.TornWrite(seq, 1000)
		if n1 != n2 || t1 != t2 {
			t.Fatalf("TornWrite(%d) not deterministic", seq)
		}
		if t1 {
			torn++
			if n1 >= 1000 || n1 < 0 {
				t.Fatalf("torn write at seq %d kept %d of 1000 bytes: not a strict prefix", seq, n1)
			}
		} else {
			whole++
			if n1 != 1000 {
				t.Fatalf("whole write truncated to %d", n1)
			}
		}
	}
	if torn == 0 || whole == 0 {
		t.Fatalf("degenerate schedule: %d torn, %d whole", torn, whole)
	}

	dropped := 0
	for k := uint64(0); k < 400; k++ {
		d1 := s.MigrationDrop(3, k)
		if d1 != s.MigrationDrop(3, k) {
			t.Fatalf("MigrationDrop(3, %d) not deterministic", k)
		}
		if d1 {
			dropped++
		}
		if d1 == s.MigrationDrop(4, k) && k == 0 {
			// Different epochs may agree per key; only require the
			// streams to be independent in aggregate (checked below).
			continue
		}
	}
	if dropped == 0 || dropped == 400 {
		t.Fatalf("degenerate migration drops: %d of 400", dropped)
	}

	// Nil and zero-config schedules are inert.
	var nilSched *Schedule
	if n, torn := nilSched.TornWrite(1, 10); torn || n != 10 {
		t.Error("nil schedule tore a write")
	}
	if nilSched.MigrationDrop(1, 1) {
		t.Error("nil schedule dropped a migration")
	}
	off := NewSchedule(7, Config{})
	if _, torn := off.TornWrite(1, 10); torn {
		t.Error("zero config tore a write")
	}
	if off.MigrationDrop(1, 1) {
		t.Error("zero config dropped a migration")
	}
}
