package conformance

// Overload dimension of the conformance suite: backpressure must be
// explicit, prompt, and lossless. Under a burst that saturates a
// deliberately tiny fleet — with one node draining mid-burst — every
// request must terminate in exactly one of three ways:
//
//   - 200 with a validated execution document bit-identical to the
//     single-node reference (admission does not change results);
//   - 429 with a Retry-After header (admission shed);
//   - 503 with a Retry-After header (drain).
//
// Nothing may hang past its budget, nothing may vanish, and no other
// status may appear. All three classes must be non-vacuous, or the
// burst never actually exercised the overload machinery.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"commfree/internal/cluster"
	"commfree/internal/service"
)

// maxOverloadBurst caps the geometric burst escalation (below).
const maxOverloadBurst = 1 << 11

// overloadSrc is the burst workload: a nest big enough (16k iterations)
// that one warm execution holds a worker for milliseconds — three
// orders of magnitude above an in-process forwarding hop. The corpus
// nests execute in microseconds, so a single-worker queue drains
// between any two hops of a rejected request's failover journey and no
// burst size can hold the fleet saturated; this nest keeps every queue
// full for the whole burst, making the shed class reachable
// deterministically rather than by scheduler luck.
const overloadSrc = `
for i = 1 to 128
  for j = 1 to 128
    S1: A[i, j] = A[i-1, j] + 1
  end
end
`

// CheckOverload runs the overload dimension on an n-node fleet with
// single-worker, two-deep queues in the given admission mode ("slo" or
// "queue"), firing `burst` concurrent execute requests round-robin over
// every node — including one that starts draining before the burst.
//
// The partition, oracle, and Retry-After properties must hold at ANY
// burst size; only the shed class's non-vacuity depends on how hard the
// burst actually hits. How hard it hits is machine-relative: the fleet's
// failover path retries a 429 against the next replica and finally the
// entry's own pool, so a burst is fully absorbed whenever queues drain
// faster than rejected requests complete their multi-hop journey — a
// ratio set by host speed and -race overhead, not by the code under
// test. Rather than hand-tuning a magic burst per machine, the checker
// escalates geometrically (fresh fleet per attempt, so demotion state
// and admission EWMAs never leak between attempts) until requests are
// actually shed, and only then judges the run. Exceeding the cap
// without a single shed is the real failure: it means no concurrency
// level can make this fleet say 429, i.e. the admission machinery is
// unreachable.
func CheckOverload(nodes, burst int, admission string) error {
	if nodes < 2 {
		return fmt.Errorf("conformance: overload: need ≥ 2 nodes, got %d", nodes)
	}
	base := service.Config{
		Workers:    1,
		QueueDepth: 2,
		Admission:  admission,
	}
	ref := service.New(service.Config{Workers: 4, QueueDepth: 64})
	defer ref.Close()

	// The single reference document: the oracle a 200 must match
	// bit-for-bit no matter which node served it or how many sheds
	// preceded it. Every burst request is the same heavy execute, so the
	// whole run has one ground truth.
	req := service.ExecuteRequest{CompileRequest: service.CompileRequest{
		Source: overloadSrc, Strategy: "duplicate", Processors: clusterProcs,
	}}
	resp, err := ref.Execute(context.Background(), req)
	if err != nil {
		return fmt.Errorf("conformance: overload: reference execute failed: %w", err)
	}
	want := docOf(resp)

	for ; burst <= maxOverloadBurst; burst *= 2 {
		shed, err := overloadAttempt(nodes, burst, base, want, req)
		if err != nil {
			return err
		}
		if shed > 0 {
			return nil
		}
	}
	return fmt.Errorf("conformance: overload: no burst up to %d over %d single-worker nodes ever shed — admission control is unreachable", maxOverloadBurst, nodes)
}

// overloadAttempt runs one burst against a fresh fleet and verifies the
// partition, oracle, and drain properties, reporting how many requests
// were shed so CheckOverload can decide whether the overload machinery
// was actually reached.
func overloadAttempt(nodes, burst int, base service.Config, want execDoc, req service.ExecuteRequest) (int, error) {
	fleet, err := cluster.NewLocal(nodes, base, cluster.WithReplicas(2))
	if err != nil {
		return 0, fmt.Errorf("conformance: overload: %w", err)
	}
	defer fleet.Close()
	client := fleet.Client()

	// Sequential preflight through every node: an unloaded fleet must
	// serve 200s, which also pins the OK class non-vacuous regardless of
	// how the scheduler interleaves the burst below (and warms the
	// routed-to nodes' plan caches, so the burst measures execution
	// backpressure rather than one giant compile).
	for i := 0; i < nodes; i++ {
		out := postExecute(client, fleet.URL(i), req)
		if out.err != nil {
			return 0, fmt.Errorf("conformance: overload: preflight via n%d: %w", i, out.err)
		}
		if out.status != http.StatusOK {
			return 0, fmt.Errorf("conformance: overload: preflight via n%d got %d before any load", i, out.status)
		}
		if doc := docOf(out.resp); doc != want {
			return 0, fmt.Errorf("conformance: overload: preflight via n%d diverges from reference:\n single: %+v\n fleet:  %+v",
				i, want, doc)
		}
	}

	// One node drains before the burst: requests entering through it
	// must be told 503 + Retry-After immediately (never queued, never
	// hung), while forwards to it from healthy entries fail over.
	drained := nodes - 1
	fleet.Services[drained].BeginDrain()

	outs := make([]executeOutcome, burst)
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			outs[i] = postExecute(client, fleet.URL(i%nodes), req)
		}(i)
	}
	close(release)
	wg.Wait()

	// The partition: every burst request in exactly one class, nothing
	// else observed.
	var ok, shed, drainedN int
	for i, out := range outs {
		if out.err != nil {
			return 0, fmt.Errorf("conformance: overload: burst request %d lost (entry n%d): %w", i, i%nodes, out.err)
		}
		switch out.status {
		case http.StatusOK:
			if !out.resp.Validated {
				return 0, fmt.Errorf("conformance: overload: burst request %d served but failed validation", i)
			}
			if doc := docOf(out.resp); doc != want {
				return 0, fmt.Errorf("conformance: overload: burst request %d diverges from reference under load:\n single: %+v\n fleet:  %+v",
					i, want, doc)
			}
			ok++
		case http.StatusTooManyRequests:
			if err := checkRetryAfter(out.retryAfter); err != nil {
				return 0, fmt.Errorf("conformance: overload: burst request %d shed: %w", i, err)
			}
			shed++
		case http.StatusServiceUnavailable:
			if err := checkRetryAfter(out.retryAfter); err != nil {
				return 0, fmt.Errorf("conformance: overload: burst request %d drained: %w", i, err)
			}
			drainedN++
		default:
			return 0, fmt.Errorf("conformance: overload: burst request %d got status %d — outside the {200, 429, 503} partition", i, out.status)
		}
	}
	if ok+shed+drainedN != burst {
		return 0, fmt.Errorf("conformance: overload: %d + %d + %d outcomes for %d requests", ok, shed, drainedN, burst)
	}
	if drainedN == 0 {
		return 0, fmt.Errorf("conformance: overload: no request entering via draining n%d saw a 503", drained)
	}
	return shed, nil
}

// checkRetryAfter asserts the rejection carried a positive integral
// Retry-After hint.
func checkRetryAfter(ra string) error {
	secs, err := strconv.Atoi(ra)
	if err != nil {
		return fmt.Errorf("Retry-After %q is not an integer", ra)
	}
	if secs < 1 {
		return fmt.Errorf("Retry-After %d < 1s tells clients to hammer", secs)
	}
	return nil
}
