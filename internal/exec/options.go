package exec

// Options shared by both parallel schedulers (the map-based oracle in
// exec.go and the kernel engine in specialize.go), and the chaos model
// they recover from.
//
// Fault-tolerant execution leans directly on the paper's theorems:
// communication-freedom means a block's footprint is disjoint from
// every other block's (or a private copy, under duplication), so a
// crashed block can be rolled back and re-executed with no cross-node
// coordination — and the retried block is bit-identical to a
// fault-free run, because nothing outside the block could have
// observed or perturbed its cells. Three crash points are modeled:
//
//   - pre/mid-compute: a deterministic prefix of the block's
//     iterations runs (partial writes land), then the node dies; the
//     checkpoint (pre-attempt image of the block's write footprint)
//     rolls the partial writes back and the block re-runs;
//   - post-commit: the block completes and commits, then the node
//     dies; recovery finds the completion record and must NOT
//     re-execute (commits are exactly-once);
//   - distribution faults (machine.FaultInjector): lost/delayed host
//     messages, charged on the simulated clock only.

import (
	"commfree/internal/chaos"
	"commfree/internal/machine"
	"commfree/internal/obs"
)

// DefaultMaxRetries is the per-block retry cap when a chaos injector
// is active: a block that fails more attempts than this aborts the run
// with a *chaos.FaultError (the service treats that as retryable at
// whole-run granularity, then degrades).
const DefaultMaxRetries = 8

// Options bundles the optional knobs of a parallel execution. The zero
// value is a plain untraced, unbudgeted, fault-free run.
type Options struct {
	// Budget caps simulated iterations and observes context
	// cancellation (nil = unlimited). Failed chaos attempts spend
	// budget too: retries are real work.
	Budget *machine.Budget
	// Trace/Parent hang the "distribute" span and per-block child
	// spans under Parent (nil trace = free).
	Trace  *obs.Trace
	Parent obs.SpanID
	// Chaos injects the deterministic failure schedule (nil = no
	// faults). MaxRetries caps per-block re-runs (0 = DefaultMaxRetries).
	Chaos      *chaos.Injector
	MaxRetries int
}

func (o Options) maxRetries() int {
	if o.MaxRetries > 0 {
		return o.MaxRetries
	}
	return DefaultMaxRetries
}
