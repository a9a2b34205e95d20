package service

// SLO-aware admission control. PR 4's front door shed load only when
// the request queue was physically full — correct, but blind: a queue
// of 512 slow requests is "not full" while every one of them is
// already doomed to miss its latency target. This controller makes the
// 429 path latency-driven instead of depth-driven:
//
//   - it keeps an EWMA of the queue delay every dequeued task actually
//     experienced (fed by the pool at dequeue time) and an EWMA of the
//     service stages' latency fed from the existing obs spans
//     (exec_run, selection, codegen, ...) — the same spans the metrics
//     histograms are built from;
//   - the admissible queue-delay bound is derived from the SLO target
//     minus the measured service time (clamped to [target/8, target]):
//     when requests themselves get slower, the queue must be kept
//     shorter to hold the end-to-end target;
//   - CoDel-style breach detection: shedding starts only when the
//     queue-delay EWMA has exceeded the bound continuously for a full
//     window (a transient spike rides through), and stops with
//     hysteresis once the EWMA falls below ResumeFrac × bound — no
//     flapping at the boundary;
//   - while shedding, a trickle of requests is still admitted whenever
//     the queue has drained to the worker count, so fresh observations
//     keep flowing and recovery is detected from measurements, not
//     from a timer;
//   - Retry-After is derived from the measured drain rate (EWMA of the
//     inter-completion gap) and the current queue delay, so a shed
//     client is told when capacity is actually expected, monotone in
//     queue depth and queue delay.
//
// The controller is deliberately clock-explicit (every method takes
// `now`) so the unit tests drive it on a synthetic timeline, and
// nil-safe so the "queue" (depth-only) baseline mode costs nothing on
// the submit path.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"commfree/internal/obs"
)

// OverloadError is a shed decision with its Retry-After hint. It
// unwraps to ErrOverloaded, so every existing errors.Is check (HTTP
// 429 mapping, cluster failover, metrics) keeps working.
type OverloadError struct {
	// RetryAfter is the drain-rate-derived wait before the client
	// should try again.
	RetryAfter time.Duration
	// Reason is "queue-full" (depth at capacity), "slo" (latency breach
	// shed before the queue filled), "projected" (the queue's projected
	// drain time alone already exceeds the admissible bound), or
	// "stale" (head-dropped at dequeue: the queue wait alone already
	// exceeded the target).
	Reason string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RetryAfterHint extracts the Retry-After duration carried by an
// overload error (0 when the error carries none).
func RetryAfterHint(err error) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// admissionStages are the span names whose durations feed the
// service-time EWMA: the stages a request spends on a worker once
// dequeued. Queue wait is tracked separately (it is the controlled
// variable, not the plant).
var admissionStages = map[string]bool{
	"exec_run":      true,
	"exec_degraded": true,
	"selection":     true,
	"codegen":       true,
}

// AdmissionStats is a snapshot of the controller state (exported as
// gauges on /v1/metrics).
type AdmissionStats struct {
	SLO          bool          `json:"slo"`
	Target       time.Duration `json:"target"`
	Bound        time.Duration `json:"bound"`
	QueueEWMA    time.Duration `json:"queue_ewma"`
	StageEWMA    time.Duration `json:"stage_ewma"`
	DrainGap     time.Duration `json:"drain_gap"`
	Shedding     bool          `json:"shedding"`
	Sheds        int64         `json:"sheds"`
	ProbeAdmits  int64         `json:"probe_admits"`
	Observations int64         `json:"observations"`
}

// admission is the controller. One per service, shared with its pool.
type admission struct {
	slo        bool // false = depth-only baseline ("queue" mode)
	alpha      float64
	resumeFrac float64
	window     time.Duration
	probeDepth int // admit-while-shedding floor (the worker count)
	onShed     func()

	mu          sync.Mutex
	targetNS    float64
	queueEwmaNS float64
	stageEwmaNS float64
	drainGapNS  float64
	lastDone    time.Time
	breachSince time.Time
	shedding    bool
	sheds       int64
	probeAdmits int64
	obsCount    int64
}

// The breach window and the recovery hysteresis: shedding starts once
// the queue-delay EWMA has stayed over the bound for sloWindow, and stops
// once it falls below sloResumeFrac of the bound.
const (
	sloWindow     = 100 * time.Millisecond
	sloResumeFrac = 0.5
)

// newAdmission builds the controller from the (defaulted) service
// config. onShed is invoked (outside the lock) for every SLO-triggered
// rejection so the service can count it.
func newAdmission(cfg Config, onShed func()) *admission {
	return &admission{
		slo:        cfg.Admission != "queue",
		alpha:      0.2,
		resumeFrac: sloResumeFrac,
		window:     sloWindow,
		probeDepth: cfg.Workers,
		onShed:     onShed,
		targetNS:   float64(cfg.SLOTarget.Nanoseconds()),
	}
}

// boundNSLocked is the admissible queue-delay bound: the SLO target
// minus the measured service time, clamped to [target/8, target].
func (a *admission) boundNSLocked() float64 {
	b := a.targetNS - a.stageEwmaNS
	if floor := a.targetNS / 8; b < floor {
		b = floor
	}
	if b > a.targetNS {
		b = a.targetNS
	}
	return b
}

// gate is the submit-time admission decision. nil means admit (the
// pool may still reject on a physically full queue); an *OverloadError
// means shed now. droppable marks work whose result is worthless past
// the SLO target (executions) — only such work is subject to the
// projected-wait cap; compilations ride through because a late compile
// still populates the caches. Nil-safe; depth-only mode always admits
// here.
func (a *admission) gate(now time.Time, depth int, droppable bool) error {
	if a == nil || !a.slo {
		return nil
	}
	a.mu.Lock()
	if !a.shedding {
		// Projected-wait cap: an arrival that would wait depth × the
		// measured drain gap has a known queueing delay before a worker
		// even sees it — if that alone exceeds the bound, the request
		// cannot meet the target no matter what happens next, so it is
		// shed immediately. This is the deterministic half of the
		// controller: it caps the standing queue at bound ÷ drain-gap
		// without waiting for the breach window, which exists to catch
		// the latency creep a depth projection cannot see (slow
		// requests, retries, hedge amplification).
		if droppable && a.drainGapNS > 0 && float64(depth)*a.drainGapNS > a.boundNSLocked() {
			ra := a.retryAfterLocked(depth)
			a.sheds++
			a.mu.Unlock()
			if a.onShed != nil {
				a.onShed()
			}
			return &OverloadError{RetryAfter: ra, Reason: "projected"}
		}
		a.mu.Unlock()
		return nil
	}
	if depth <= a.probeDepth {
		// Drained enough: admit a probe so observations keep flowing
		// and recovery is measured rather than assumed.
		a.probeAdmits++
		a.mu.Unlock()
		return nil
	}
	ra := a.retryAfterLocked(depth)
	a.sheds++
	a.mu.Unlock()
	if a.onShed != nil {
		a.onShed()
	}
	return &OverloadError{RetryAfter: ra, Reason: "slo"}
}

// admitAged is the dequeue-time (head-of-queue) decision: while the
// controller is in its shedding state, a task whose queue wait alone
// already exceeds the SLO target cannot possibly meet it, so running
// it would burn a worker on a doomed request — that is precisely how
// the standing backlog admitted *before* the breach tripped turns into
// seconds of tail latency, since the enqueue gate only sees fresh
// arrivals. Head-drop it with the same OverloadError instead; the
// still-queued caller gets its 429 the moment a worker reaches the
// task, not after the result it can no longer use. Outside the
// shedding state a slow excursion rides through untouched, preserving
// the pool's accepted-means-answered behavior in normal operation.
// Nil-safe; depth-only mode never head-drops.
func (a *admission) admitAged(wait time.Duration, depth int) error {
	if a == nil || !a.slo {
		return nil
	}
	a.mu.Lock()
	if !a.shedding || float64(wait.Nanoseconds()) <= a.targetNS {
		a.mu.Unlock()
		return nil
	}
	ra := a.retryAfterLocked(depth)
	a.sheds++
	a.mu.Unlock()
	if a.onShed != nil {
		a.onShed()
	}
	return &OverloadError{RetryAfter: ra, Reason: "stale"}
}

// overloadFull builds the queue-full rejection with the same
// drain-rate-derived Retry-After. Nil-safe (falls back to 1s).
func (a *admission) overloadFull(depth int) error {
	if a == nil {
		return &OverloadError{RetryAfter: time.Second, Reason: "queue-full"}
	}
	a.mu.Lock()
	ra := a.retryAfterLocked(depth)
	a.mu.Unlock()
	return &OverloadError{RetryAfter: ra, Reason: "queue-full"}
}

// retryAfterLocked estimates when a retry could be admitted: the time
// to drain the current queue at the measured completion rate, plus the
// queue delay already being experienced. Monotone in depth and in the
// queue-delay EWMA; clamped to [1s, 30s].
func (a *admission) retryAfterLocked(depth int) time.Duration {
	gap := a.drainGapNS
	if gap <= 0 {
		gap = float64(time.Millisecond) // no drain measured yet: assume 1k/s
	}
	est := float64(depth)*gap + a.queueEwmaNS
	d := time.Duration(est)
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// observeQueueDelay feeds one dequeue's measured queue wait (called by
// the pool as each task starts running) and re-evaluates the breach
// state machine. Nil-safe.
func (a *admission) observeQueueDelay(now time.Time, d time.Duration) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.obsCount++
	a.queueEwmaNS += a.alpha * (float64(d.Nanoseconds()) - a.queueEwmaNS)
	bound := a.boundNSLocked()
	switch {
	case a.queueEwmaNS > bound:
		if a.breachSince.IsZero() {
			a.breachSince = now
		} else if !a.shedding && now.Sub(a.breachSince) >= a.window {
			a.shedding = true
		}
	case a.queueEwmaNS <= a.resumeFrac*bound:
		// Hysteresis: full recovery only well below the bound.
		a.breachSince = time.Time{}
		a.shedding = false
	default:
		// Between resume and breach: hold the current state, but a
		// not-yet-tripped breach timer resets (the excursion ended).
		if !a.shedding {
			a.breachSince = time.Time{}
		}
	}
	a.mu.Unlock()
}

// observeDone feeds one task completion (drain-rate estimation).
// Nil-safe.
func (a *admission) observeDone(now time.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.lastDone.IsZero() {
		gap := float64(now.Sub(a.lastDone).Nanoseconds())
		// A gap of seconds means the pool sat idle between bursts, not
		// that it drains slowly; folding it in would make the projected-
		// wait gate shed the first arrivals after every lull.
		if gap <= float64(time.Second) {
			if a.drainGapNS == 0 {
				a.drainGapNS = gap
			} else {
				a.drainGapNS += a.alpha * (gap - a.drainGapNS)
			}
		}
	}
	a.lastDone = now
	a.mu.Unlock()
}

// observeStage feeds one span duration into the service-time EWMA if
// the stage is one a worker spends on a dequeued request.
func (a *admission) observeStage(name string, durNS int64) {
	if a == nil || durNS < 0 || !admissionStages[name] {
		return
	}
	a.mu.Lock()
	a.stageEwmaNS += a.alpha * (float64(durNS) - a.stageEwmaNS)
	a.mu.Unlock()
}

// ObserveTrace folds a finished request's span tree into the
// controller — the same obs spans the metrics histograms consume.
func (a *admission) ObserveTrace(trc *obs.Trace) {
	if a == nil || trc == nil {
		return
	}
	// A parallel run's block rows share one name, so the stage test runs
	// once per run of names, not once per row.
	var name string
	var stage bool
	trc.EachDuration(func(n string, durNS int64) {
		if n != name {
			name, stage = n, admissionStages[n]
		}
		if stage {
			a.observeStage(n, durNS)
		}
	})
}

// stats snapshots the controller (zero value for nil).
func (a *admission) stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		SLO:          a.slo,
		Target:       time.Duration(a.targetNS),
		Bound:        time.Duration(a.boundNSLocked()),
		QueueEWMA:    time.Duration(a.queueEwmaNS),
		StageEWMA:    time.Duration(a.stageEwmaNS),
		DrainGap:     time.Duration(a.drainGapNS),
		Shedding:     a.shedding,
		Sheds:        a.sheds,
		ProbeAdmits:  a.probeAdmits,
		Observations: a.obsCount,
	}
}
