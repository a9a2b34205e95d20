package service

// Request batching for /v1/execute: concurrent requests for one cache
// key (canonical program, strategy, processors) share one execution —
// one kernel, one arena, one scheduler pass — through Service.batches, a
// group (flight.go) whose window is BatchWindow and whose cap is
// BatchMax. Requests with fault injection never batch: a failure
// schedule is per-request, so a batch can neither observe nor share
// injected faults.

import (
	"context"

	"commfree/internal/chaos"
	"commfree/internal/obs"
)

// execute runs one execute request, through the coalescing layer when
// batching is on and no fault is injected. The caller has already
// resolved the cache entry and bounded ctx by the request timeout.
func (s *Service) execute(ctx context.Context, entry *cacheEntry, req ExecuteRequest, cached bool, trc *obs.Trace, inj *chaos.Injector, seed int64) (*ExecuteResponse, error) {
	if inj != nil || s.cfg.BatchWindow <= 0 {
		return s.executeWithRetry(ctx, entry, req, cached, trc, inj, seed)
	}
	shared, led, err := s.batches.do(ctx, s, trc, entry.key, func(ctx context.Context, size int) (*ExecuteResponse, error) {
		s.metrics.Inc("execute_batches", 1)
		s.metrics.Inc("execute_batch_followers", int64(size-1))
		resp, err := s.executeWithRetry(ctx, entry, req, cached, trc, nil, 0)
		if err == nil {
			resp.BatchSize, resp.TraceID = size, trc.ID()
		}
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	if !led {
		bsp := trc.Start(0, "execute_batched")
		bsp.SetStr("leader_trace", shared.TraceID)
		bsp.SetInt("batch_size", int64(shared.BatchSize))
		bsp.End()
	}
	// The shared slices and chaos-free report are read-only; Execute
	// attributes the copy to this request's trace and wall time.
	resp := *shared
	resp.Batched = resp.BatchSize > 1
	return &resp, nil
}
