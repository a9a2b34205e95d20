package main

// The traced pass. Every layer is measured from outside: after the
// timed window one client replays a fixed slice of the load, and for
// each op the benchmark records a root span around the real request
// and then, on the same input, one span around its own call into each
// layer's exported function. Spans stay in memory until the run ends.
// Spans inside the program are a later change.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"commfree/internal/assign"
	"commfree/internal/cluster"
	"commfree/internal/codegen"
	"commfree/internal/deps"
	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/machine"
	"commfree/internal/normalize"
	"commfree/internal/partition"
	"commfree/internal/redundant"
	"commfree/internal/selector"
	"commfree/internal/service"
	"commfree/internal/store"
	"commfree/internal/transform"
)

// replayOps is how many ops of client 0's stream the traced pass
// replays on the warm workloads; compile-cold replays one whole pass.
const replayOps = 200

// span is one timed interval. Parent is the ID of the op's root span
// (0 for a root); a layer span is a re-enactment made after its root
// ended, so it shares the root's op_id but does not nest inside it in
// time. IDs are positions in the file, starting at 1.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

type tracer struct {
	t0    time.Time
	spans []span
	// counts are what the layers produced, one value per plan.
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// time records a span around fn and returns its ID.
func (t *tracer) time(name string, parent, opID int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	t.spans = append(t.spans, span{name, int64(start), int64(time.Since(t.t0)), parent, opID})
	return len(t.spans)
}

// us is the duration of the span with the ID, in µs.
func (t *tracer) us(id int) float64 {
	return float64(t.spans[id-1].EndNS-t.spans[id-1].StartNS) / 1e3
}

func (t *tracer) count(name string, v float64) { t.counts[name] = append(t.counts[name], v) }

// durations returns the µs durations of the named spans, by op.
func (t *tracer) durations(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.OpID] += float64(s.EndNS-s.StartNS) / 1e3
		}
	}
	return out
}

// medianUS is the layer's number: the median over ops of the time its
// spans took.
func (t *tracer) medianUS(name string) float64 {
	var v []float64
	for _, d := range t.durations(name) {
		v = append(v, d)
	}
	return median(v)
}

// artifacts are what a plan's compile layers leave for its request
// layers to run on.
type artifacts struct {
	kern *exec.Kernel
	seq  map[string]float64
}

// The layers a compile goes through, in pipeline order; their spans sum
// to (almost) a cold Service.Compile. partition.Compute runs deps and
// redundant itself, so those two are measured but not summed.
var compilePath = []string{"normalize.source", "lang.canonical", "lang.parse", "selector.best",
	"partition.compute", "mars.compute", "partition.verify", "transform.transform", "assign.assign", "codegen.generate"}

// The layers a warm execute goes through inside Service.Execute.
var executePath = []string{"normalize.source", "lang.canonical", "exec.kernel_run", "exec.equal"}

// compileLayers calls every layer of the compile pipeline on the plan,
// then the layers that turn the plan into something runnable, then the
// store with the plan's record. coldService adds a cold and a hit
// Service.Compile on a fresh service (compile-cold's root op is that
// cold compile already).
func (t *tracer) compileLayers(p planSpec, parent, opID int, coldService bool, scratch *store.FileStore) (*artifacts, error) {
	cost := machine.Transputer()
	var err error
	fail := func(layer string, e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("%s on %s: %w", layer, p.ID(), e)
		}
	}
	span := func(name string, fn func() error) {
		if err == nil {
			t.time(name, parent, opID, func() { fail(name, fn()) })
		}
	}

	var (
		nres    *normalize.Result
		canon   string
		cn      *loop.Nest
		best    selector.Candidate
		ranking []selector.Candidate
		an      *deps.Analysis
		res     *partition.Result
		tr      *transform.Transformed
		asg     *assign.Assignment
		spmd    string
		prog    *exec.Program
		art     = &artifacts{}
		rep     *exec.Report
	)
	span("normalize.source", func() (e error) { nres, e = normalize.Source(p.Source); return })
	span("lang.canonical", func() error { canon = lang.Canonical(nres.Nest); return nil })
	span("lang.parse", func() (e error) { cn, e = lang.Parse(canon); return })
	span("selector.best", func() (e error) { best, ranking, e = selector.Best(cn, p.Procs, cost); return })
	span("deps.analyze", func() (e error) { an, e = deps.Analyze(cn); return })
	span("redundant.eliminate", func() (e error) { _, e = redundant.Eliminate(an); return })
	if err != nil {
		return nil, err
	}

	// Resolve the strategy as the service does, then partition.
	rs := resolve(p, best)
	strat, partName := rs.strat, "partition.compute"
	if strat == partition.Mars {
		partName = "mars.compute"
	}
	span(partName, func() (e error) { res, e = rs.partition(cn); return })
	partUS := t.us(len(t.spans))
	span("partition.verify", func() error { return res.Verify() })
	span("transform.transform", func() (e error) { tr, e = transform.Transform(cn, res.Psi); return })
	span("assign.assign", func() error { asg = assign.Assign(tr, p.Procs); return nil })
	span("codegen.generate", func() (e error) {
		var opts codegen.Options
		if strat == partition.Mars {
			opts.PEIterations = codegen.PETable(res, tr, asg)
		}
		spmd, e = codegen.Generate(tr, asg, opts)
		return
	})

	span("exec.compile_nest", func() (e error) { prog, e = exec.CompileNest(res.Analysis.Nest, res.Redundant); return })
	span("exec.specialize", func() (e error) { art.kern, e = prog.Specialize(res, p.Procs); return })
	span("exec.sequential", func() error { art.seq = prog.Sequential(); return nil })
	if err != nil {
		return nil, err
	}

	// One untimed run fills the kernel's arena pool; the allocation
	// count is then that of a steady-state run.
	if rep, err = art.kern.Run(cost, exec.Options{}); err != nil {
		return nil, fmt.Errorf("kernel run of %s: %w", p.ID(), err)
	}
	if err := exec.Equal(rep.Final, art.seq); err != nil {
		return nil, fmt.Errorf("kernel of %s differs from sequential execution: %w", p.ID(), err)
	}
	const allocRuns = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns && err == nil; i++ {
		_, err = art.kern.Run(cost, exec.Options{})
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}

	// The store, on the record a service would write for this plan.
	rec := &store.Record{
		Key:             fmt.Sprintf("s=%s|p=%d|%s", p.Strategy, p.Procs, canon),
		CanonicalSource: canon,
		Strategy:        wireName(strat),
		Processors:      p.Procs,
		CreatedUnixNS:   1,
	}
	rec.Duplicated = rs.dup
	var predicted *selector.Candidate
	for i := range ranking {
		if ranking[i].Label == rs.label {
			predicted = &ranking[i]
		}
	}
	rec.Plan, err = json.Marshal(service.Plan{CanonicalSource: canon, Strategy: rs.label, Processors: p.Procs,
		Partition: res.Info(), Transform: tr.Info(), Assignment: asg.Info(), Predicted: predicted, Ranking: ranking, SPMDGo: spmd})
	if err != nil {
		return nil, err
	}
	span("store.put", func() error { return scratch.Put(rec) })
	span("store.get", func() error {
		_, ok, e := scratch.Get(rec.Key)
		if e == nil && !ok {
			e = fmt.Errorf("record just written is missing")
		}
		return e
	})
	if encoded, e := store.Encode(rec); e == nil {
		t.count("store.record_bytes", float64(len(encoded)))
	}

	if coldService {
		svc := service.New(service.Config{})
		span("service.compile_cold", func() (e error) { _, e = svc.Compile(context.Background(), request(p)); return })
		span("service.compile_hit", func() (e error) { _, e = svc.Compile(context.Background(), request(p)); return })
		svc.Close()
	}

	t.count("selector.candidates", float64(len(ranking)))
	t.count("partition.blocks", float64(res.Iter.NumBlocks()))
	t.count("codegen.spmd_bytes", float64(len(spmd)))
	t.count("exec.kernel_allocs", float64(after.Mallocs-before.Mallocs)/allocRuns)
	if strat != partition.Mars {
		t.count("partition.us_per_kiter", partUS/(float64(p.Iterations())/1000))
	}
	return art, err
}

// wireName is the name a store record carries for the strategy.
func wireName(s partition.Strategy) string {
	for name, have := range explicitStrategies {
		if have == s {
			return name
		}
	}
	return "selective"
}

// requestLayers calls, on the op's own input, the layers a warm request
// passes through, then the same request on the service directly (no
// HTTP) — checked like any other response.
func (t *tracer) requestLayers(e *env, o op, art *artifacts, svc *service.Service, parent, opID int) error {
	p := e.w.Plans[o.Plan]
	cost := machine.Transputer()
	var (
		nres *normalize.Result
		rep  *exec.Report
		err  error
	)
	t.time("normalize.source", parent, opID, func() { nres, err = normalize.Source(p.Source) })
	if err != nil {
		return err
	}
	t.time("lang.canonical", parent, opID, func() { _ = lang.Canonical(nres.Nest) })
	ctx := context.Background()
	if o.Kind == opCompile {
		var resp *service.CompileResponse
		t.time("service.compile_hit", parent, opID, func() { resp, err = svc.Compile(ctx, request(p)) })
		if err != nil {
			return err
		}
		return checkCompile(pinOf(resp), e.planExp[o.Plan])
	}
	t.time("exec.kernel_run", parent, opID, func() {
		rep, err = art.kern.Run(cost, exec.Options{Budget: machine.NewBudget(ctx, 1<<22)})
	})
	if err != nil {
		return err
	}
	t.time("exec.equal", parent, opID, func() { err = exec.Equal(rep.Final, art.seq) })
	if err != nil {
		return err
	}
	var resp *service.ExecuteResponse
	t.time("service.execute", parent, opID, func() {
		resp, err = svc.Execute(ctx, service.ExecuteRequest{CompileRequest: request(p)})
	})
	if err != nil {
		return err
	}
	return checkExecute(executeView{resp.Engine, resp.Validated, resp.Mismatches, resp.InterNodeMessages,
		resp.Elements, resp.SimElapsedS, resp.IterationsPerNode}, e.runExp[o.Plan])
}

// sizeRatio is the size axis of partitioning: partition.Compute
// (duplicate strategy) on the two 3-deep families at extent 12 and at
// 24, and the mean of time(24) ÷ time(12). 8 while partitioning
// enumerates the iteration space, 1 once it is size-independent. The
// extents are the probe's own — the same on every workload — because
// the small nests of the warm workloads are dominated by fixed costs.
// Each time is the fastest of three, so one collection does not decide
// the ratio.
func (t *tracer) sizeRatio() (float64, error) {
	fastest := func(family string, extent int) (float64, error) {
		nest := lang.MustParse(spell(family, extent, 0, 0))
		best := 0.0
		for i := 0; i < 3; i++ {
			var err error
			id := t.time("partition.compute_size_probe", 0, -1, func() { _, err = partition.Compute(nest, partition.Duplicate) })
			if err != nil {
				return 0, err
			}
			if d := t.us(id); best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	var ratios []float64
	for _, family := range []string{famMatmul, famStencil} {
		small, err := fastest(family, 12)
		if err != nil {
			return 0, err
		}
		big, err := fastest(family, 24)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, big/small)
	}
	return median(ratios), nil
}

// tracedPass replays the load with one client, recording spans, and
// returns the per-layer metrics. win is the timed window the pass
// follows; its counters and latencies feed the ratio and self-time rows.
func (e *env) tracedPass(win window, scratchDir string) (*tracer, map[string]float64, error) {
	t := newTracer()
	scratch, err := store.Open(scratchDir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer scratch.Close()
	cold := e.w.Name == wlCompileCold

	// Warm workloads: the compile layers once per distinct plan (they
	// are what set-up paid), leaving each plan's kernel for the replay.
	arts := make([]*artifacts, len(e.w.Plans))
	if !cold {
		for i, p := range e.w.Plans {
			root := t.time("plan_probe", 0, -1-i, func() {})
			if arts[i], err = t.compileLayers(p, root, -1-i, true, scratch); err != nil {
				return t, nil, err
			}
		}
	}

	n := replayOps
	if cold {
		n = len(e.w.Plans)
	}
	var ring time.Duration
	for k := 0; k < n; k++ {
		o := e.w.Op(0, k)
		p := e.w.Plans[o.Plan]
		missesBefore := e.serviceCounters().misses
		var opErr error
		root := t.time("op", 0, k, func() { _, opErr = e.do(o) })
		if opErr != nil {
			return t, nil, fmt.Errorf("traced op %d (%s %s): %w", k, o.Kind, p.ID(), opErr)
		}
		rootSpan := t.spans[root-1]
		if !cold && e.serviceCounters().misses > missesBefore {
			// Single client, so a miss during this op is this op's: it
			// was served by rehydrating the plan from the store.
			t.spans = append(t.spans, span{"service.rehydrate", rootSpan.StartNS, rootSpan.EndNS, root, k})
		}
		svc := e.svcs[0]
		if cold {
			// The root op is the cold Service.Compile itself.
			t.spans = append(t.spans, span{"service.compile_cold", rootSpan.StartNS, rootSpan.EndNS, root, k})
			t.time("service.compile_hit", root, k, func() { _, opErr = svc.Compile(context.Background(), request(p)) })
			if opErr != nil {
				return t, nil, opErr
			}
			if arts[o.Plan], err = t.compileLayers(p, root, k, false, scratch); err != nil {
				return t, nil, err
			}
			o.Kind = opExecute // the request layers of the plan just compiled
			// One untimed execute builds the service's own kernel.
			if _, err := svc.Execute(context.Background(), service.ExecuteRequest{CompileRequest: request(p)}); err != nil {
				return t, nil, err
			}
		}
		if e.nodes != nil {
			svc = e.svcs[e.home[o.Plan]]
			// The same request sent straight to the plan's home: no hop.
			t.time("cluster.direct", root, k, func() { _, _, opErr = e.post(e.home[o.Plan], o) })
			if opErr != nil {
				return t, nil, opErr
			}
			nres, _ := normalize.Source(p.Source)
			key := cluster.KeyHash(lang.Canonical(nres.Nest))
			r := e.nodes[0].Ring()
			t0 := time.Now()
			for i := 0; i < 1000; i++ {
				_ = r.Route(key, 2, nil, nil, -1)
			}
			ring += time.Since(t0)
		}
		if err := t.requestLayers(e, o, arts[o.Plan], svc, root, k); err != nil {
			return t, nil, err
		}
	}

	m := map[string]float64{}
	for _, name := range []string{"normalize.source", "lang.canonical", "lang.parse", "selector.best", "deps.analyze",
		"redundant.eliminate", "partition.compute", "mars.compute", "partition.verify", "transform.transform",
		"assign.assign", "codegen.generate", "exec.compile_nest", "exec.specialize", "exec.kernel_run",
		"exec.sequential", "exec.equal", "store.put", "store.get", "service.execute", "service.compile_hit",
		"service.compile_cold", "service.rehydrate"} {
		m[name+"_us"] = t.medianUS(name)
	}
	for _, name := range []string{"selector.candidates", "partition.blocks", "partition.us_per_kiter",
		"codegen.spmd_bytes", "exec.kernel_allocs", "store.record_bytes"} {
		m[name] = median(t.counts[name])
	}
	if m["partition.size_ratio"], err = t.sizeRatio(); err != nil {
		return t, nil, err
	}

	// Self times, op by op: what is left of an interval once the layers
	// measured inside it are taken out.
	sumOver := func(names []string) map[int]float64 {
		sum := map[int]float64{}
		for _, name := range names {
			for id, d := range t.durations(name) {
				sum[id] += d
			}
		}
		return sum
	}
	selfOf := func(whole string, parts map[int]float64) (self, share []float64) {
		for id, d := range t.durations(whole) {
			if part, ok := parts[id]; ok && d > 0 {
				self, share = append(self, d-part), append(share, part/d)
			}
		}
		return
	}
	compileSelf, compileShare := selfOf("service.compile_cold", sumOver(compilePath))
	dispatchSelf, _ := selfOf("service.execute", sumOver(executePath))
	m["service.compile_self_us"] = median(compileSelf)
	m["service.dispatch_self_us"] = median(dispatchSelf)
	if cold {
		m["bench.attributed_share"] = median(compileShare)
		m["service.http_self_us"] = 0 // no HTTP on this workload
	} else {
		// A warm op is attributed as far as the execute-path layers and
		// nothing else: pool, report, JSON and net/http are the rest.
		_, share := selfOf("op", sumOver(executePath))
		m["bench.attributed_share"] = median(share)
		m["service.http_self_us"] = win.metrics["latency_p50_us"] - m["service.execute_us"]
	}
	hop, _ := selfOf("op", t.durations("cluster.direct"))
	m["cluster.hop_self_us"] = median(hop)
	if e.nodes != nil {
		m["cluster.ring_route_ns"] = float64(ring.Nanoseconds()) / float64(1000*n)
	} else {
		m["cluster.ring_route_ns"] = 0
	}
	m["bench.trace_overhead_share"] = (t.medianUS("op") - win.metrics["latency_p50_us"]) / win.metrics["latency_p50_us"]

	// Counters and runtime cost of the timed window, per verified op.
	ops := float64(win.ok)
	d := win.delta
	m["service.compiles"] = float64(d.compiles)
	if d.hits+d.misses > 0 {
		m["service.cache_hit_ratio"] = float64(d.hits) / float64(d.hits+d.misses)
	}
	m["cluster.forwarded_share"] = float64(d.forwardedIn) / ops
	m["store.reads"], m["store.writes"] = float64(d.storeGets), float64(d.storePuts)
	m["runtime.allocs_per_op"] = float64(d.mallocs) / ops
	m["runtime.alloc_kb_per_op"] = float64(d.allocBytes) / 1024 / ops
	m["runtime.cpu_ms_per_op"] = float64(d.cpu) / float64(time.Millisecond) / ops
	m["runtime.gc_pause_ms"] = float64(d.gcPauseNS) / 1e6
	m["client.latency_p99_us"], m["client.latency_max_us"], m["client.ops"] = win.p99, win.max, ops
	return t, m, nil
}
