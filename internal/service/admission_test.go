package service

// Unit tests for the SLO admission controller, driven on a synthetic
// timeline (every observation carries an explicit clock) so breach
// windows and hysteresis are exact, not sleep-approximated.

import (
	"errors"
	"testing"
	"time"
)

// admCfg configures a controller with a 100ms target and a 4-worker
// probe floor; newTestAdmission gives it a 50ms breach window (and the
// 0.5 resume fraction) — small round numbers the table cases reason
// about directly.
func admCfg() Config {
	return Config{
		Admission: "slo",
		SLOTarget: 100 * time.Millisecond,
		Workers:   4,
	}.withDefaults()
}

func newTestAdmission(cfg Config, onShed func()) *admission {
	a := newAdmission(cfg, onShed)
	a.window = 50 * time.Millisecond
	return a
}

// feed pushes n identical queue-delay observations spaced step apart
// starting at t0, returning the time after the last one.
func feed(a *admission, t0 time.Time, n int, d, step time.Duration) time.Time {
	now := t0
	for i := 0; i < n; i++ {
		a.observeQueueDelay(now, d)
		now = now.Add(step)
	}
	return now
}

func TestAdmissionEWMAConvergence(t *testing.T) {
	cases := []struct {
		name   string
		inputs []time.Duration
		lo, hi time.Duration // expected EWMA range after the sequence
	}{
		{"constant converges to constant",
			repeatD(50*time.Millisecond, 40), 49 * time.Millisecond, 51 * time.Millisecond},
		{"step up tracks the new level",
			append(repeatD(10*time.Millisecond, 10), repeatD(200*time.Millisecond, 40)...),
			195 * time.Millisecond, 201 * time.Millisecond},
		{"step down decays toward the new level",
			append(repeatD(200*time.Millisecond, 40), repeatD(10*time.Millisecond, 40)...),
			9 * time.Millisecond, 12 * time.Millisecond},
		{"single spike is damped",
			append(repeatD(10*time.Millisecond, 40), 500*time.Millisecond),
			10 * time.Millisecond, 110 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestAdmission(admCfg(), nil)
			now := time.Unix(0, 0)
			for _, d := range tc.inputs {
				a.observeQueueDelay(now, d)
				now = now.Add(time.Millisecond)
			}
			got := a.stats().QueueEWMA
			if got < tc.lo || got > tc.hi {
				t.Fatalf("queue EWMA = %v, want in [%v, %v]", got, tc.lo, tc.hi)
			}
		})
	}
}

func repeatD(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestAdmissionShedOnBreach(t *testing.T) {
	// bound = target − stageEWMA = 100ms with no stage observations.
	cases := []struct {
		name      string
		delay     time.Duration // per-observation queue delay
		n         int
		step      time.Duration
		wantSheds bool
	}{
		// 20 × 5ms steps = 100ms of sustained breach > 50ms window.
		{"sustained breach sheds", 300 * time.Millisecond, 20, 5 * time.Millisecond, true},
		// Same delays but the excursion is shorter than the window.
		{"short excursion rides through", 300 * time.Millisecond, 5, 5 * time.Millisecond, false},
		// Below the bound: never sheds no matter how long.
		{"under bound never sheds", 20 * time.Millisecond, 100, 5 * time.Millisecond, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestAdmission(admCfg(), nil)
			now := feed(a, time.Unix(0, 0), tc.n, tc.delay, tc.step)
			err := a.gate(now, 100 /* deep queue: no probe */, true)
			if tc.wantSheds && err == nil {
				t.Fatalf("gate admitted, want shed (stats %+v)", a.stats())
			}
			if !tc.wantSheds && err != nil {
				t.Fatalf("gate shed (%v), want admit", err)
			}
			if tc.wantSheds {
				var oe *OverloadError
				if !errors.As(err, &oe) || oe.Reason != "slo" {
					t.Fatalf("err = %#v, want *OverloadError{Reason: slo}", err)
				}
				if !errors.Is(err, ErrOverloaded) {
					t.Fatal("shed error must unwrap to ErrOverloaded")
				}
			}
		})
	}
}

func TestAdmissionStageEWMATightensBound(t *testing.T) {
	// With the service stages themselves eating ~80ms of the 100ms
	// target, a 30ms queue delay — harmless on an idle service — is a
	// breach: bound = clamp(100−80) = 20ms.
	a := newTestAdmission(admCfg(), nil)
	for i := 0; i < 40; i++ {
		a.observeStage("exec_run", (80 * time.Millisecond).Nanoseconds())
	}
	if b := a.stats().Bound; b > 25*time.Millisecond {
		t.Fatalf("bound = %v, want tightened near 20ms", b)
	}
	now := feed(a, time.Unix(0, 0), 30, 30*time.Millisecond, 5*time.Millisecond)
	if err := a.gate(now, 100, true); err == nil {
		t.Fatalf("gate admitted under tightened bound (stats %+v)", a.stats())
	}
	// Irrelevant span names must not move the stage EWMA.
	b := newTestAdmission(admCfg(), nil)
	b.observeStage("parse", (500 * time.Millisecond).Nanoseconds())
	b.observeStage("queue_wait", (500 * time.Millisecond).Nanoseconds())
	if got := b.stats().StageEWMA; got != 0 {
		t.Fatalf("stage EWMA moved to %v on non-worker spans", got)
	}
}

func TestAdmissionRecoveryHysteresis(t *testing.T) {
	a := newTestAdmission(admCfg(), nil)
	// Drive into shedding.
	now := feed(a, time.Unix(0, 0), 30, 300*time.Millisecond, 5*time.Millisecond)
	if err := a.gate(now, 100, true); err == nil {
		t.Fatal("not shedding after sustained breach")
	}
	// Decay into the hysteresis band (between resume=50ms and
	// bound=100ms): still shedding.
	for a.stats().QueueEWMA > 90*time.Millisecond {
		a.observeQueueDelay(now, 80*time.Millisecond)
		now = now.Add(5 * time.Millisecond)
	}
	ew := a.stats().QueueEWMA
	if ew <= 50*time.Millisecond || ew > 100*time.Millisecond {
		t.Fatalf("EWMA %v not in the hysteresis band", ew)
	}
	if err := a.gate(now, 100, true); err == nil {
		t.Fatal("recovered inside the hysteresis band; want still shedding")
	}
	// Decay below resume fraction: recovered.
	for a.stats().QueueEWMA > 50*time.Millisecond {
		a.observeQueueDelay(now, time.Millisecond)
		now = now.Add(5 * time.Millisecond)
	}
	if err := a.gate(now, 100, true); err != nil {
		t.Fatalf("still shedding below resume threshold: %v (stats %+v)", err, a.stats())
	}
	// And a fresh excursion must re-arm the full breach window: one
	// breach observation does not re-shed.
	a.observeQueueDelay(now, 300*time.Millisecond)
	if err := a.gate(now, 100, true); err != nil {
		t.Fatalf("re-shed without a sustained window: %v", err)
	}
}

func TestAdmissionProbeWhileShedding(t *testing.T) {
	a := newTestAdmission(admCfg(), nil)
	now := feed(a, time.Unix(0, 0), 30, 300*time.Millisecond, 5*time.Millisecond)
	if err := a.gate(now, a.probeDepth+1, true); err == nil {
		t.Fatal("above the probe floor: want shed")
	}
	if err := a.gate(now, a.probeDepth, true); err != nil {
		t.Fatalf("at the probe floor: want probe admit, got %v", err)
	}
	if got := a.stats().ProbeAdmits; got != 1 {
		t.Fatalf("probe admits = %d, want 1", got)
	}
}

// TestAdmissionHeadDrop: the dequeue-time decision. Head-drops happen
// only in the shedding state and only for waits beyond the target; the
// rejection is reason "stale" and unwraps to ErrOverloaded like every
// other shed.
func TestAdmissionHeadDrop(t *testing.T) {
	a := newTestAdmission(admCfg(), nil)
	// Calm controller: even an ancient task runs (excursions ride through).
	if err := a.admitAged(time.Hour, 10); err != nil {
		t.Fatalf("head-drop while not shedding: %v", err)
	}
	// Trip the breach (100ms target, 50ms window).
	now := feed(a, time.Unix(0, 0), 30, 300*time.Millisecond, 5*time.Millisecond)
	if err := a.gate(now, 100, true); err == nil {
		t.Fatal("controller did not trip; test premise broken")
	}
	if err := a.admitAged(90*time.Millisecond, 10); err != nil {
		t.Fatalf("head-dropped a task within target: %v", err)
	}
	err := a.admitAged(150*time.Millisecond, 10)
	if err == nil {
		t.Fatal("stale task not head-dropped while shedding")
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "stale" {
		t.Fatalf("head-drop error = %v, want *OverloadError{Reason: stale}", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("head-drop does not unwrap to ErrOverloaded: %v", err)
	}
	// Queue mode and nil controller never head-drop.
	q := newTestAdmission(Config{Admission: "queue"}.withDefaults(), nil)
	if err := q.admitAged(time.Hour, 10); err != nil {
		t.Fatalf("queue-mode head-drop: %v", err)
	}
	var nilAdm *admission
	if err := nilAdm.admitAged(time.Hour, 10); err != nil {
		t.Fatalf("nil-controller head-drop: %v", err)
	}
}

// TestAdmissionProjectedCap: the deterministic half of the gate. With a
// measured drain gap, an arrival whose projected queue wait
// (depth × gap) exceeds the bound is shed immediately — no breach
// window — but only for droppable work, and never from idle-gap noise.
func TestAdmissionProjectedCap(t *testing.T) {
	// 1ms per completion: depth 200 projects 200ms against a 100ms
	// bound; depth 50 projects 50ms.
	drained := func() *admission {
		a := newTestAdmission(admCfg(), nil)
		now := time.Unix(0, 0)
		for i := 0; i < 50; i++ {
			a.observeDone(now)
			now = now.Add(time.Millisecond)
		}
		return a
	}
	now := time.Unix(1, 0)

	a := drained()
	err := a.gate(now, 200, true)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "projected" {
		t.Fatalf("gate(depth=200) = %v, want *OverloadError{Reason: projected}", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("projected shed must unwrap to ErrOverloaded")
	}
	if err := a.gate(now, 50, true); err != nil {
		t.Fatalf("gate(depth=50) = %v, want admit (projected wait under bound)", err)
	}

	// Compilations (non-droppable) ride through any projection.
	if err := drained().gate(now, 200, false); err != nil {
		t.Fatalf("non-droppable projection-shed: %v", err)
	}

	// No drain measurement, no projection: depth alone is not evidence.
	fresh := newTestAdmission(admCfg(), nil)
	if err := fresh.gate(now, 1<<20, true); err != nil {
		t.Fatalf("projection-shed without a measured drain gap: %v", err)
	}

	// An idle lull between completions must not poison the gap EWMA
	// into projection-shedding the first burst after it.
	b := drained()
	b.observeDone(now.Add(10 * time.Second)) // pool sat idle
	if err := b.gate(now.Add(10*time.Second), 50, true); err != nil {
		t.Fatalf("idle gap poisoned the drain estimate: %v", err)
	}

	// Queue mode never projects.
	cfg := admCfg()
	cfg.Admission = "queue"
	q := newTestAdmission(cfg, nil)
	for i := 0; i < 50; i++ {
		q.observeDone(time.Unix(0, int64(i)*int64(time.Millisecond)))
	}
	if err := q.gate(now, 1<<20, true); err != nil {
		t.Fatalf("queue-mode projection-shed: %v", err)
	}
}

func TestAdmissionRetryAfterMonotone(t *testing.T) {
	// Fix the drain gap at 100ms/completion so the estimate is exact.
	a := newTestAdmission(admCfg(), nil)
	now := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		a.observeDone(now)
		now = now.Add(100 * time.Millisecond)
	}

	// Monotone in queue depth.
	prev := time.Duration(0)
	for _, depth := range []int{0, 1, 10, 50, 100, 1000} {
		ra := a.retryAfterLocked(depth)
		if ra < prev {
			t.Fatalf("retryAfter(depth=%d) = %v < %v: not monotone in depth", depth, ra, prev)
		}
		prev = ra
	}
	if ra := a.retryAfterLocked(0); ra < time.Second {
		t.Fatalf("retryAfter floor = %v, want ≥ 1s", ra)
	}
	if ra := a.retryAfterLocked(1 << 20); ra > 30*time.Second {
		t.Fatalf("retryAfter cap = %v, want ≤ 30s", ra)
	}

	// Monotone in queue delay: same depth, rising queue-delay EWMA.
	prev = 0
	for _, qd := range []time.Duration{0, 100 * time.Millisecond, time.Second, 5 * time.Second} {
		b := newTestAdmission(admCfg(), nil)
		for i := 0; i < 40; i++ {
			b.observeQueueDelay(now, qd)
		}
		ra := b.retryAfterLocked(8)
		if ra < prev {
			t.Fatalf("retryAfter(queueEWMA=%v) = %v < %v: not monotone in queue delay", qd, ra, prev)
		}
		prev = ra
	}
}

func TestAdmissionQueueModeNeverGates(t *testing.T) {
	cfg := admCfg()
	cfg.Admission = "queue"
	a := newTestAdmission(cfg, nil)
	now := feed(a, time.Unix(0, 0), 100, time.Second, 5*time.Millisecond)
	if err := a.gate(now, 1<<20, true); err != nil {
		t.Fatalf("queue mode gated: %v", err)
	}
	if a.stats().SLO {
		t.Fatal("stats report SLO mode for a queue-mode controller")
	}
	// The queue-full path still carries a Retry-After in both modes.
	err := a.overloadFull(64)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue-full" || oe.RetryAfter < time.Second {
		t.Fatalf("overloadFull = %#v", err)
	}
}

func TestAdmissionNilSafe(t *testing.T) {
	var a *admission
	if err := a.gate(time.Now(), 100, true); err != nil {
		t.Fatalf("nil gate: %v", err)
	}
	a.observeQueueDelay(time.Now(), time.Second)
	a.observeDone(time.Now())
	a.observeStage("exec_run", 1)
	a.ObserveTrace(nil)
	if got := a.stats(); got.SLO {
		t.Fatalf("nil stats = %+v", got)
	}
	if !errors.Is(a.overloadFull(1), ErrOverloaded) {
		t.Fatal("nil overloadFull must still be ErrOverloaded")
	}
}
