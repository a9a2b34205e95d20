// Package service turns the commfree compiler into a long-running
// compilation service: clients submit loop nests in the DSL and receive
// a priced, communication-free allocation plan (partition basis, forall
// program, block→processor assignment, predicted distribution/compute
// cost) or a simulated execution of that plan.
//
// The service layers three mechanisms over the existing pipeline:
//
//   - a canonicalizing plan cache (cache.go): nests are normalized via
//     internal/lang's canonical renderer so α-equivalent programs hit
//     the same LRU entry, with entry/byte bounds and hit/miss counters;
//   - a bounded worker pool (pool.go) running canonical → the compile
//     pipeline (selector.Compile: admission, selection, verify,
//     transform, assign) →
//     codegen → plan off a request queue with per-request timeouts,
//     context cancellation, and graceful drain;
//   - a metrics registry (metrics.go) of per-stage latency histograms,
//     cache hit rate, queue depth, and in-flight count.
//
// cmd/commfreed exposes it over HTTP (http.go).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commfree/internal/assign"
	"commfree/internal/chaos"
	"commfree/internal/codegen"
	"commfree/internal/exec"
	"commfree/internal/intlin"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/obs"
	"commfree/internal/partition"
	"commfree/internal/selector"
	"commfree/internal/store"
	"commfree/internal/transform"
)

// Config tunes a Service. Zero values select the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default 4) and QueueDepth the
	// request-queue bound (default 64).
	Workers    int
	QueueDepth int
	// CacheEntries bounds the plan cache (default 256 entries; its bytes
	// are bounded by cacheBytes).
	CacheEntries int
	// RequestTimeout caps one request end to end (default 30s).
	RequestTimeout time.Duration
	// MaxIterations is the per-request iteration budget (default
	// loop.DefaultMaxIterations, 1<<22 iterations; 0 keeps the default,
	// negative means unlimited). A nest with more iterations is refused
	// by the compile pipeline's admission before it is enumerated —
	// compiling or reviving it costs time and memory linear in that
	// count — and a simulated execution may spend no more (both are
	// machine.ErrBudgetExhausted, HTTP 422).
	MaxIterations int64
	// TraceRing bounds the ring of recent request traces behind
	// GET /v1/trace/{id} (default 256 traces).
	TraceRing int
	// ChaosSeed enables deterministic fault injection on /v1/execute
	// when non-zero: every execution draws a failure schedule from this
	// seed (a request's chaos_seed field overrides it per request).
	// Chaos tunes the schedule mix; its zero value means
	// chaos.DefaultConfig().
	ChaosSeed int64
	Chaos     chaos.Config
	// Admission selects the overload policy on the front door: "slo"
	// (default) sheds with 429s when the measured queue delay would
	// push admitted requests past SLOTarget (EWMA of per-stage latency
	// from the obs spans, CoDel-style sustained-breach detection,
	// drain-rate-derived Retry-After); "queue" restores the PR 4
	// depth-only baseline (reject only when the queue is physically
	// full).
	Admission string
	// SLOTarget is the end-to-end latency objective admission control
	// defends (default 150ms).
	SLOTarget time.Duration
	// StoreDir, when non-empty, backs the plan cache with a persistent
	// content-addressed store at that directory (opened by NewWithStore);
	// Store injects an already-open store directly and wins over
	// StoreDir. With a store configured, compiled plans are written
	// through at compile time and cache eviction demotes to disk: a
	// later request for an evicted (or pre-restart) plan rehydrates the
	// record instead of recompiling (see store.go).
	StoreDir string
	Store    store.Store
}

// Bounds nothing has ever needed to set: the plan cache's approximate
// size in bytes, the largest machine a request may ask for, the largest
// program accepted, and the whole-run re-executions after an injected
// fault exhausts a block's retry budget, with the base of the
// exponential backoff between them. Executions run on the machine cost
// model machine.Transputer().
const (
	cacheBytes     = 64 << 20
	maxProcessors  = 1024
	maxSourceBytes = 1 << 20
	maxExecRetries = 2
	retryBackoff   = time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = loop.DefaultMaxIterations
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	if c.Chaos == (chaos.Config{}) {
		c.Chaos = chaos.DefaultConfig()
	}
	if c.Admission != "queue" {
		c.Admission = "slo"
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 150 * time.Millisecond
	}
	return c
}

// BadRequestError marks client errors (malformed source, unknown
// strategy, out-of-range processors); the HTTP layer maps it to 400.
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &BadRequestError{Err: fmt.Errorf(format, args...)}
}

// CompileRequest is the input of POST /v1/compile (and the compilation
// half of /v1/execute).
type CompileRequest struct {
	// Source is the loop-nest DSL program.
	Source string `json:"source"`
	// Strategy is one of "non-duplicate", "duplicate",
	// "minimal-non-duplicate", "minimal-duplicate", "mars" (usage-based
	// atomic partitions), or "auto" (pick the cheapest allocation,
	// including selective duplication subsets and MARS). Empty means
	// "non-duplicate".
	Strategy string `json:"strategy,omitempty"`
	// Processors is the machine size (default 16).
	Processors int `json:"processors,omitempty"`
}

// Plan is the wire form of one compilation: everything a client needs
// to reproduce the allocation, in JSON-stable types.
type Plan struct {
	// CanonicalSource is the canonicalized program the service actually
	// compiled (α-equivalent inputs share it).
	CanonicalSource string `json:"canonical_source"`
	// Strategy is the strategy that was compiled (after "auto"
	// resolution, e.g. "selective{B}").
	Strategy   string `json:"strategy"`
	Processors int    `json:"processors"`
	// Partition, Transform, and Assignment describe the plan proper.
	Partition  partition.Info `json:"partition"`
	Transform  transform.Info `json:"transform"`
	Assignment assign.Info    `json:"assignment"`
	// Predicted is the selector's cost estimate for the compiled
	// allocation; Ranking prices every alternative, cheapest first.
	Predicted *selector.Candidate  `json:"predicted,omitempty"`
	Ranking   []selector.Candidate `json:"ranking,omitempty"`
	// SPMDGo is the generated standalone Go program.
	SPMDGo string `json:"spmd_go"`
}

// CompileResponse is the output of POST /v1/compile.
type CompileResponse struct {
	Plan *Plan `json:"plan"`
	// Cached reports whether the plan came from the cache (or from a
	// concurrent compilation of the same canonical program).
	Cached bool `json:"cached"`
	// ElapsedS is the service-side wall time for this request.
	ElapsedS float64 `json:"elapsed_s"`
	// TraceID names this request's span tree; retrieve it with
	// GET /v1/trace/{id} while it remains in the trace ring.
	TraceID string `json:"trace_id,omitempty"`
}

// ExecuteRequest is the input of POST /v1/execute: a compilation
// request plus execution-only knobs.
type ExecuteRequest struct {
	CompileRequest
	// ChaosSeed overrides the service's configured fault-injection seed
	// for this request (0 keeps the service default; injection stays off
	// unless one of the two is non-zero).
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
}

// ExecuteResponse is the output of POST /v1/execute: the plan is run on
// the simulated multicomputer and validated against sequential
// execution.
type ExecuteResponse struct {
	Strategy   string `json:"strategy"`
	Processors int    `json:"processors"`
	Cached     bool   `json:"cached"`
	// Simulated timings (seconds on the configured cost model).
	DistributionS float64 `json:"distribution_s"`
	ComputeS      float64 `json:"compute_s"`
	SimElapsedS   float64 `json:"sim_elapsed_s"`
	// HostMessages counts host→node distribution messages;
	// InterNodeMessages is zero for every communication-free plan.
	HostMessages      int64 `json:"host_messages"`
	InterNodeMessages int64 `json:"inter_node_messages"`
	// IterationsPerNode is the per-processor workload.
	IterationsPerNode []int64 `json:"iterations_per_node"`
	// Engine is the executor that ran the plan: "kernel" or "oracle"
	// (the latter also when a compile-cap fallback downgraded the
	// request), or "sequential" for a degraded run.
	Engine string `json:"engine"`
	// Validated reports element-exact agreement with sequential
	// execution over Elements array elements.
	Validated  bool `json:"validated"`
	Mismatches int  `json:"mismatches"`
	Elements   int  `json:"elements"`
	// ElapsedS is the service-side wall time for this request.
	ElapsedS float64 `json:"elapsed_s"`
	// TraceID names this request's span tree; retrieve it with
	// GET /v1/trace/{id} while it remains in the trace ring.
	TraceID string `json:"trace_id,omitempty"`
	// ChaosSeed echoes the failure-schedule seed when fault injection
	// was active, and Chaos summarizes what the schedule injected.
	// Retries counts whole-run re-executions after per-block recovery
	// was exhausted; Degraded reports the final fallback to the
	// sequential oracle once the retry budget ran out too.
	ChaosSeed int64        `json:"chaos_seed,omitempty"`
	Chaos     *chaos.Stats `json:"chaos,omitempty"`
	Retries   int          `json:"retries,omitempty"`
	Degraded  bool         `json:"degraded,omitempty"`
}

// compiled holds the live pipeline artifacts behind a cached plan,
// needed to execute it. Read-only after construction; its executable
// forms are built lazily, once, by the first execution that needs them
// (flight.go).
type compiled struct {
	nest *loop.Nest
	res  *partition.Result

	// program compiles the nest for the dense engine from the footprint
	// the partition's index holds.
	program lazy[*exec.Program]
	// kernel specializes the program for the plan's machine size (the
	// cache key carries the processor count, so one kernel per entry is
	// exact). Its arenas recycle across executions.
	kernel lazy[*exec.Kernel]
	// reference is the kernel engine's validation reference, the
	// sequential final state in the program's dense layout; sequential
	// is the oracle engine's, keyed. Every execution of a plan on one
	// engine validates against the same state.
	reference  lazy[*exec.State]
	sequential lazy[map[string]float64]
	// programBuilds counts the program builds begun: 0 until the first
	// execution, then 1 unless every caller left a build.
	programBuilds atomic.Int32
}

// newCompiled wraps a plan's nest and partition for execution on p
// processors. A build waits for the program on no context: it is kept.
func newCompiled(nest *loop.Nest, res *partition.Result, p int) *compiled {
	c := &compiled{nest: nest, res: res}
	c.program.build = func(*Service, *obs.Trace) (*exec.Program, error) {
		c.programBuilds.Add(1)
		return exec.CompilePartition(res)
	}
	c.kernel.build = func(s *Service, trc *obs.Trace) (*exec.Kernel, error) {
		prog, err := c.program.get(context.Background(), s, trc)
		if err != nil {
			return nil, err
		}
		return prog.Specialize(res, p)
	}
	c.reference.build = func(s *Service, trc *obs.Trace) (*exec.State, error) {
		prog, err := c.program.get(context.Background(), s, trc)
		if err != nil {
			return nil, err
		}
		return prog.Reference(), nil
	}
	c.sequential.build = func(s *Service, trc *obs.Trace) (map[string]float64, error) {
		prog, err := c.program.get(context.Background(), s, trc)
		switch {
		case err == nil:
			return prog.Sequential(), nil
		case panicked(err):
			return nil, err
		}
		return exec.Sequential(nest, nil), nil
	}
	return c
}

// Service is the compilation service.
type Service struct {
	cfg     Config
	cache   *planCache
	pool    *pool
	adm     *admission
	metrics *Metrics
	traces  *obs.Ring
	keys    *keyMemo

	// compiles runs one compile per cache key at a time.
	compiles group[*cacheEntry]

	// st is the plan store (nil until configured or lazily created by
	// ensureStore); ownsStore marks stores opened by NewWithStore, which
	// Close must close.
	storeMu   sync.Mutex
	st        store.Store
	ownsStore bool

	// drain is set by BeginDrain before the pool itself closes, so the
	// front door (and the cluster routing layer) can refuse new work —
	// 503 + Retry-After — while already-accepted requests finish.
	drain atomic.Bool
}

// New builds a Service from the config.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		cache:   newPlanCache(cfg.CacheEntries, cacheBytes),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		metrics: NewMetrics(),
		traces:  obs.NewRing(cfg.TraceRing),
		keys:    newKeyMemo(cfg.CacheEntries),
	}
	s.adm = newAdmission(cfg, func() { s.metrics.Inc("admission_sheds", 1) })
	s.pool.adm = s.adm
	s.metrics.Gauge("queue_depth", func() int64 { return int64(s.pool.queueDepth()) })
	s.metrics.Gauge("queue_capacity", func() int64 { return int64(s.pool.queueCap()) })
	s.metrics.Gauge("in_flight", func() int64 { return s.pool.running() })
	s.metrics.Gauge("workers", func() int64 { return int64(cfg.Workers) })
	s.metrics.Gauge("admission_slo", func() int64 {
		if s.adm.stats().SLO {
			return 1
		}
		return 0
	})
	s.metrics.Gauge("admission_slo_target_ms", func() int64 { return s.adm.stats().Target.Milliseconds() })
	s.metrics.Gauge("admission_shedding", func() int64 {
		if s.adm.stats().Shedding {
			return 1
		}
		return 0
	})
	s.metrics.Gauge("admission_queue_ewma_us", func() int64 { return s.adm.stats().QueueEWMA.Microseconds() })
	s.metrics.Gauge("admission_stage_ewma_us", func() int64 { return s.adm.stats().StageEWMA.Microseconds() })
	s.metrics.Gauge("admission_bound_us", func() int64 { return s.adm.stats().Bound.Microseconds() })
	s.metrics.Gauge("chaos_enabled", func() int64 {
		if cfg.ChaosSeed != 0 {
			return 1
		}
		return 0
	})
	if cfg.Store != nil {
		// Store gauges exist only on store-backed services, so the
		// metrics surface (and its goldens) is unchanged without one.
		s.st = cfg.Store
		s.metrics.Gauge("store_records", func() int64 { return s.st.Stats().Records })
		s.metrics.Gauge("store_bytes", func() int64 { return s.st.Stats().Bytes })
	}
	return s
}

// Metrics exposes the registry (for tests and the HTTP layer).
func (s *Service) Metrics() *Metrics { return s.metrics }

// Traces exposes the recent-trace ring (for tests and the HTTP layer).
func (s *Service) Traces() *obs.Ring { return s.traces }

// CacheStats exposes the cache counters.
func (s *Service) CacheStats() CacheStats { return s.cache.stats() }

// MaxSourceBytes exposes the source-size bound (the cluster router
// sizes its body reader from it).
func (s *Service) MaxSourceBytes() int { return maxSourceBytes }

// BeginDrain flips the service into drain mode without waiting: new
// requests (local or forwarded) fail immediately with ErrDraining so
// cluster peers re-route, while everything already accepted keeps
// running. Close() still performs the blocking drain.
func (s *Service) BeginDrain() { s.drain.Store(true) }

// Draining reports whether the service is refusing new work — either
// BeginDrain was called or the pool has started closing.
func (s *Service) Draining() bool { return s.drain.Load() || s.pool.draining() }

// Close drains the service: in-flight and queued requests complete and
// receive their responses; new requests fail with ErrDraining. A store
// opened by NewWithStore is closed too.
func (s *Service) Close() {
	s.drain.Store(true)
	s.pool.close()
	if s.ownsStore {
		if st := s.store(); st != nil {
			_ = st.Close()
		}
	}
}

// RemoteParent is the trace context of a request another node
// forwarded here: the span (in the sender's trace) this request's whole
// trace is a child of.
type RemoteParent struct {
	Trace string // the sender's trace ID
	Span  int64  // the parent span in that trace
	From  string // the sender's node name
}

type remoteParentKey struct{}

// WithRemoteParent hands Compile and Execute the remote trace context
// through the request context; the cluster router sets it on a
// forwarded request's terminal hop.
func WithRemoteParent(ctx context.Context, rp RemoteParent) context.Context {
	return context.WithValue(ctx, remoteParentKey{}, rp)
}

// newTrace starts a request trace. Under a remote parent its first span
// is remote_parent, so either half of a cross-node tree names the other.
func newTrace(ctx context.Context, name string) *obs.Trace {
	trc := obs.New(name)
	if rp, ok := ctx.Value(remoteParentKey{}).(RemoteParent); ok {
		trc.Bulk([]obs.Span{{
			Name: "remote_parent",
			Attrs: []obs.Attr{
				{Key: "trace", Str: rp.Trace},
				{Key: "span", Int: rp.Span},
				{Key: "from", Str: rp.From},
			},
		}})
	}
	return trc
}

// validate checks request bounds and fills defaults.
func (s *Service) validate(req *CompileRequest) error {
	if len(req.Source) == 0 {
		return badRequest("empty source")
	}
	if len(req.Source) > maxSourceBytes {
		return badRequest("source is %d bytes, limit %d", len(req.Source), maxSourceBytes)
	}
	if req.Processors == 0 {
		req.Processors = 16
	}
	if req.Processors < 1 || req.Processors > maxProcessors {
		return badRequest("processors = %d, allowed 1..%d", req.Processors, maxProcessors)
	}
	return nil
}

// Compile serves one compilation request through the cache and pool.
func (s *Service) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	if s.Draining() {
		s.metrics.Inc("drain_rejects", 1)
		return nil, ErrDraining
	}
	start := time.Now()
	s.metrics.Inc("compile_requests", 1)
	trc := newTrace(ctx, "compile")
	defer func() {
		s.traces.Add(trc)
		s.metrics.ObserveTrace(trc)
		s.adm.ObserveTrace(trc)
	}()
	entry, cached, err := s.compileEntry(ctx, req, trc)
	var plan *Plan
	if err == nil {
		if plan, err = entry.typed(ctx, s, trc); err != nil && ctx.Err() == nil && !panicked(err) {
			// Only a revived entry decodes, so its record is bad: forget
			// both and answer with a full compile.
			s.forget(entry)
			if entry, cached, err = s.compileEntry(ctx, req, trc); err == nil {
				plan, err = entry.typed(ctx, s, trc)
			}
		}
	}
	if err != nil {
		s.countError(err)
		return nil, err
	}
	return &CompileResponse{
		Plan:     plan,
		Cached:   cached,
		ElapsedS: time.Since(start).Seconds(),
		TraceID:  trc.ID(),
	}, nil
}

// compileEntry is the shared compile-through-cache path. Pipeline spans
// land in trc; on a cache hit (or a piggy-backed flight) the trace holds
// only the parse span — the cold path's spans belong to the leader's
// request.
func (s *Service) compileEntry(ctx context.Context, req CompileRequest, trc *obs.Trace) (e *cacheEntry, cached bool, err error) {
	if err := s.validate(&req); err != nil {
		return nil, false, err
	}
	name := req.Strategy
	if name == "" {
		name = partition.NonDuplicate.WireName()
	}
	pin, err := selector.PinFor(name)
	if err != nil {
		return nil, false, &BadRequestError{err}
	}
	// Stage: parse — derive the cache key on the caller, so the cache
	// fast path never touches the pool. A source text seen before costs
	// one memo lookup (memo=1); otherwise the affine front end parses and
	// normalizes it. The pass is the identity on every nest the strict
	// parser accepts, so uniform sources key and compile exactly as
	// before, while affine sources enter the pipeline already rewritten
	// to uniformly generated form.
	psp := trc.Start(0, "parse")
	psp.SetInt("bytes", int64(len(req.Source)))
	sk, memo, err := s.deriveKey(req.Source)
	if err == nil && memo {
		psp.SetInt("memo", 1)
	}
	if sk.Normalized {
		psp.SetInt("normalized", 1)
	}
	psp.End()
	if err != nil {
		return nil, false, err
	}

	key := "s=" + name + "|p=" + strconv.Itoa(req.Processors) + "|" + sk.Canonical
	if e, ok := s.cache.get(key); ok {
		return e, true, nil
	}

	// One compile per key at a time (flight.go), bounded by
	// RequestTimeout: its first caller's trace gets the pipeline's spans,
	// and the others wait for the result without occupying a worker.
	// hit is set by the run this call starts, and read only once that
	// run's result is in.
	hit := false
	e, led, err := s.compiles.do(ctx, s, trc, key, func(ctx context.Context) (*cacheEntry, error) {
		// A flight that finished between our miss and this one's start
		// has filled the cache.
		if e, ok := s.cache.peek(key); ok {
			hit = true
			return e, nil
		}
		// On a pool worker: first the store read-through — a plan evicted
		// to disk, imported from a peer, or compiled before a restart
		// rehydrates instead of recompiling — then, on a true miss, the
		// full pipeline.
		v, err := s.runPooled(ctx, trc, false, func(ctx context.Context) (any, error) {
			if e := s.rehydrateFromStore(key, trc); e != nil {
				hit = true
				return e, nil
			}
			return s.compile(ctx, key, sk.Canonical, pin, req.Processors, trc)
		})
		if err != nil {
			return nil, err
		}
		e := v.(*cacheEntry)
		s.cacheAdd(e)
		if !hit {
			s.persist(e)
		}
		return e, nil
	})
	return e, err == nil && (hit || !led), err
}

// compile runs the compile pipeline (selector.Compile) on canonSrc, the
// canonical text deriveKey rendered, on a pool worker, and builds the
// cache entry from the candidate it compiled: the one labelled pin, or
// the cheapest when pin is "". Stage spans land in trc; the stage
// histograms are folded in from the spans at request end.
func (s *Service) compile(ctx context.Context, key, canonSrc, pin string, procs int, trc *obs.Trace) (e *cacheEntry, err error) {
	// compiles counts pipeline runs past admission — and only those.
	// Refusals, store rehydrations and cache hits leave it untouched,
	// which is what lets the conformance suite prove "served without
	// recompilation" from the counter instead of assuming it.
	defer func() {
		if !errors.Is(err, machine.ErrBudgetExhausted) {
			s.metrics.Inc("compiles", 1)
		}
	}()
	// Stage: canonical — compile the canonical nest, so cached plans are
	// identical for all α-equivalent spellings of the program.
	ksp := trc.Start(0, "canonical")
	cn, err := lang.Parse(canonSrc)
	ksp.End()
	if err != nil {
		return nil, fmt.Errorf("service: canonical source does not re-parse: %w", err)
	}
	ev, err := selector.Compile(ctx, cn, procs, machine.Transputer(), pin, s.cfg.MaxIterations, trc)
	if err != nil {
		return nil, err
	}
	predicted, res, tr, asg := &ev.Chosen, ev.Result, ev.Transformed, ev.Assignment

	// Stage: codegen — the standalone SPMD Go program for the forall
	// transformation and processor assignment the selection priced.
	csp := trc.Start(0, "codegen")
	copts := codegen.Options{}
	if res.Strategy == partition.Mars {
		copts.PEIterations = codegen.PETable(res, tr, asg)
	}
	spmd, err := codegen.Generate(tr, asg, copts)
	csp.End()
	if err != nil {
		return nil, err
	}

	// Stage: plan — the wire views of the partition, the forall loop and
	// the assignment, and the store record they are encoded into.
	psp := trc.Start(0, "plan")
	plan := &Plan{
		CanonicalSource: canonSrc,
		Strategy:        predicted.Label,
		Processors:      procs,
		Partition:       res.Info(),
		Transform:       tr.Info(),
		Assignment:      asg.Info(),
		Predicted:       predicted,
		Ranking:         ev.Ranking,
		SPMDGo:          spmd,
	}
	rec, err := recordFor(key, plan, res, predicted.Duplicated)
	psp.End()
	if err != nil {
		return nil, err
	}
	return &cacheEntry{key: key, label: plan.Strategy, plan: plan, comp: newCompiled(cn, res, procs), rec: rec, bytes: entryBytes(rec)}, nil
}

// runPooled runs fn on a pool worker via trySubmit and records the
// time the request spent queued as a queue_wait span, so per-request
// traces expose the quantity admission control regulates. droppable
// marks work eligible for the shedding-state head-drop (executions,
// whose results are worthless past the SLO target); compilations pass
// false and always run once accepted.
func (s *Service) runPooled(ctx context.Context, trc *obs.Trace, droppable bool, fn func(ctx context.Context) (any, error)) (any, error) {
	startOff := trc.Since()
	var wait time.Duration
	v, err := s.pool.trySubmit(ctx, droppable, func(ctx context.Context) (v any, err error) {
		wait = trc.Since() - startOff
		defer s.contain(trc, &err)
		return fn(ctx)
	})
	if wait > 0 {
		trc.Bulk([]obs.Span{{Name: "queue_wait", StartNS: int64(startOff), DurNS: int64(wait)}})
	}
	return v, err
}

// contain, deferred around every pooled task and every flight's fn,
// turns a panic into the task's error, marked as a panicError: the worker
// survives, and the in-flight count, the admission feedback and the
// flight's key are released by the code that releases them after any
// failed task. An arithmetic overflow — how the exact-arithmetic packages
// refuse a coefficient — is the program's doing and keeps its sentinel
// (HTTP 422). Anything else is a bug: it is counted, its stack goes on
// the request's trace as a panic span, and the error names that trace.
func (s *Service) contain(trc *obs.Trace, err *error) {
	p := recover()
	if p == nil {
		return
	}
	if perr, ok := p.(error); ok && errors.Is(perr, intlin.ErrOverflow) {
		*err = panicError{fmt.Errorf("service: the program's coefficients are too large to analyse exactly: %w", perr)}
		return
	}
	s.metrics.Inc("panics", 1)
	sp := trc.Start(0, "panic")
	sp.SetStr("value", fmt.Sprint(p))
	sp.SetStr("stack", string(debug.Stack()))
	sp.End()
	*err = panicError{fmt.Errorf("service: internal error: a worker panicked serving this request (trace %s)", trc.ID())}
}

// countError folds a request error into the counters (overload
// rejections get their own series on top of the error count).
func (s *Service) countError(err error) {
	s.metrics.Inc("errors", 1)
	if errors.Is(err, ErrOverloaded) {
		s.metrics.Inc("overload_rejections", 1)
	}
}

// Execute compiles (through the cache) and runs the plan on the
// simulated multicomputer under the request budget, validating the
// result against sequential execution.
//
// When fault injection is active (service ChaosSeed or request
// chaos_seed), the run proceeds through a resilience state machine:
// per-block retry inside the engines absorbs scheduled faults first;
// a run that still dies with *chaos.FaultError is re-executed up to
// maxExecRetries times under exponential backoff with deterministic
// jitter (each re-run advances the schedule epoch, so transient faults
// decorrelate); and when the retry budget is exhausted the request
// degrades to the sequential oracle, which cannot fault.
func (s *Service) Execute(ctx context.Context, req ExecuteRequest) (*ExecuteResponse, error) {
	if s.Draining() {
		s.metrics.Inc("drain_rejects", 1)
		return nil, ErrDraining
	}
	start := time.Now()
	s.metrics.Inc("execute_requests", 1)
	trc := newTrace(ctx, "execute")
	defer func() {
		s.traces.Add(trc)
		s.metrics.ObserveTrace(trc)
		s.adm.ObserveTrace(trc)
	}()
	entry, cached, err := s.compileEntry(ctx, req.CompileRequest, trc)
	if err != nil {
		s.countError(err)
		return nil, err
	}
	if req.Processors == 0 {
		req.Processors = 16
	}

	seed := s.cfg.ChaosSeed
	if req.ChaosSeed != 0 {
		seed = req.ChaosSeed
	}
	var inj *chaos.Injector
	if seed != 0 {
		inj = chaos.NewInjector(chaos.NewSchedule(seed, s.cfg.Chaos))
	}

	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	resp, err := s.executeWithRetry(ctx, entry, req, cached, trc, inj, seed)
	if err != nil {
		s.countError(err)
		return nil, err
	}
	if inj != nil {
		st := inj.Stats()
		resp.ChaosSeed = seed
		resp.Chaos = &st
		s.metrics.Inc("chaos_faults", st.Faults)
		s.metrics.Inc("chaos_block_retries", st.Retries)
	}
	resp.ElapsedS = time.Since(start).Seconds()
	resp.TraceID = trc.ID()
	return resp, nil
}

// executeWithRetry runs the resilience state machine for one request:
// execute on a pool worker, re-execute on *chaos.FaultError up to
// maxExecRetries times under backoff, then degrade to the sequential
// oracle.
func (s *Service) executeWithRetry(ctx context.Context, entry *cacheEntry, req ExecuteRequest, cached bool, trc *obs.Trace, inj *chaos.Injector, seed int64) (*ExecuteResponse, error) {
	var resp *ExecuteResponse
	retries := 0
	for attempt := 0; ; attempt++ {
		v, err := s.runPooled(ctx, trc, true, func(ctx context.Context) (any, error) {
			return s.executeOnce(ctx, entry, req, cached, trc, inj, seed, attempt)
		})
		if err == nil {
			resp = v.(*ExecuteResponse)
			break
		}
		var fe *chaos.FaultError
		if !errors.As(err, &fe) {
			return nil, err
		}
		if attempt >= maxExecRetries {
			// Retry budget exhausted: degrade to the sequential oracle.
			v, err = s.runPooled(ctx, trc, true, func(ctx context.Context) (any, error) {
				return s.executeSequential(ctx, entry, req, cached, trc)
			})
			if err != nil {
				return nil, err
			}
			s.metrics.Inc("execute_degraded", 1)
			resp = v.(*ExecuteResponse)
			resp.Degraded = true
			break
		}
		retries++
		s.metrics.Inc("execute_retries", 1)
		inj.NextEpoch()
		if err := sleepBackoff(ctx, retryBackoff, attempt, inj); err != nil {
			return nil, err
		}
	}
	resp.Retries = retries
	return resp, nil
}

// sleepBackoff waits base<<attempt plus deterministic jitter from the
// schedule (no rand: replays of a seed back off identically), bailing
// out early if the request context dies.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int, inj *chaos.Injector) error {
	d := base << uint(attempt)
	d += time.Duration(float64(d) * inj.Jitter(attempt))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// executeOnce is one parallel execution attempt on a pool worker.
func (s *Service) executeOnce(ctx context.Context, entry *cacheEntry, req ExecuteRequest, cached bool, trc *obs.Trace, inj *chaos.Injector, seed int64, attempt int) (*ExecuteResponse, error) {
	t0 := time.Now()
	defer func() { s.metrics.Observe("execution", time.Since(t0)) }()
	var budget *machine.Budget
	if s.cfg.MaxIterations > 0 {
		budget = machine.NewBudget(ctx, s.cfg.MaxIterations)
	} else {
		budget = machine.NewBudget(ctx, 0)
	}

	// Stage: exec_compile — resolve the cached plan into the
	// specialized kernel (amortized: built once per cache entry). Nests
	// beyond the compile caps fall back to the map-based oracle, and
	// the span says why.
	engine := "kernel"
	csp := trc.Start(0, "exec_compile")
	kern, err := entry.comp.kernel.get(ctx, s, trc)
	if err != nil && ctx.Err() == nil && !panicked(err) {
		s.metrics.Inc("exec_compile_fallbacks", 1)
		engine = "oracle"
		csp.SetStr("fallback", engine)
		csp.SetStr("reason", err.Error())
		err = nil
	}
	csp.End()
	if err != nil {
		return nil, err
	}

	// Stage: exec_run — the simulated parallel execution. The
	// engine hangs per-block child spans (worker, block, words)
	// plus a "distribute" span under this one.
	rsp := trc.Start(0, "exec_run")
	rsp.SetStr("engine", engine)
	if inj != nil {
		rsp.SetInt("chaos_seed", seed)
		rsp.SetInt("attempt", int64(attempt))
	}
	opts := exec.Options{Budget: budget, Trace: trc, Parent: rsp.ID(), Chaos: inj}
	var rep *exec.Report
	var verdict func(*exec.State) (elements, mismatches int)
	if kern != nil {
		rep, verdict, err = kern.Validate(machine.Transputer(), opts)
	} else {
		rep, err = exec.ParallelOpts(entry.comp.res, req.Processors, machine.Transputer(), opts)
	}
	if inj != nil {
		st := inj.Stats()
		rsp.SetInt("chaos_faults", st.Faults)
		rsp.SetInt("chaos_block_retries", st.Retries)
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	s.metrics.Inc("execute_engine_"+engine, 1)

	// Stage: exec_validate — element-exact comparison against the
	// sequential reference, computed once per cache entry and shared
	// by every execution of the plan: the kernel's arena against the
	// dense reference, cell by cell, or the oracle's map against the
	// keyed one. The compiled program's pruned sequential path is the
	// same final state by Section III.C (proven by the differential
	// tests).
	vsp := trc.Start(0, "exec_validate")
	var elements, mismatches int
	var ref *exec.State
	var want map[string]float64
	if verdict != nil {
		if ref, err = entry.comp.reference.get(ctx, s, trc); err == nil {
			elements, mismatches = verdict(ref)
		}
	} else if want, err = entry.comp.sequential.get(ctx, s, trc); err == nil {
		elements, mismatches = len(want), exec.Mismatches(rep.Final, want)
	}
	if err != nil {
		vsp.End()
		return nil, err
	}
	vsp.SetInt("elements", int64(elements))
	vsp.SetInt("mismatches", int64(mismatches))
	vsp.End()
	return &ExecuteResponse{
		Strategy:          entry.label,
		Processors:        req.Processors,
		Cached:            cached,
		DistributionS:     rep.Machine.DistributionTime(),
		ComputeS:          rep.Machine.ComputeTime(),
		SimElapsedS:       rep.Machine.Elapsed(),
		HostMessages:      rep.Machine.Messages(),
		InterNodeMessages: rep.Machine.InterNodeMessages(),
		IterationsPerNode: rep.IterationsPerNode,
		Engine:            engine,
		Validated:         mismatches == 0,
		Mismatches:        mismatches,
		Elements:          elements,
	}, nil
}

// executeSequential is the graceful-degradation path: the nest runs on
// the sequential oracle — no simulated machine, no injection points —
// so a request whose parallel run keeps faulting still returns its
// (trivially validated) final state.
func (s *Service) executeSequential(ctx context.Context, entry *cacheEntry, req ExecuteRequest, cached bool, trc *obs.Trace) (*ExecuteResponse, error) {
	t0 := time.Now()
	defer func() { s.metrics.Observe("execution", time.Since(t0)) }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dsp := trc.Start(0, "exec_degraded")
	state := exec.Sequential(entry.comp.nest, nil)
	dsp.SetInt("elements", int64(len(state)))
	dsp.End()
	return &ExecuteResponse{
		Strategy:   entry.label,
		Processors: req.Processors,
		Cached:     cached,
		Engine:     "sequential",
		Validated:  true,
		Elements:   len(state),
	}, nil
}
