package main

// The four workloads: set-up, the closed-loop clients, the counters
// read around the timed window, and the end-to-end metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"commfree/internal/cluster"
	"commfree/internal/lang"
	"commfree/internal/normalize"
	"commfree/internal/service"
	"commfree/internal/store"
)

const (
	// churnCacheEntries is plan-churn's LRU size: a quarter of its 64
	// plans, so about three ops in four miss and rehydrate.
	churnCacheEntries = 16
	fleetNodes        = 3
	// sliceLen is the round length of the time-sliced workloads; every
	// percentile is taken per round and the median round is reported,
	// which keeps one scheduler hiccup out of the result.
	sliceLen = time.Second
)

// env is one set-up workload: the services under test, their real
// loopback listeners and the client that drives them.
type env struct {
	w       *workload
	planExp []planPin
	runExp  []runPin

	svcs    []*service.Service
	nodes   []*cluster.Node
	lns     []net.Listener
	servers []*http.Server
	served  sync.WaitGroup
	urls    []string
	client  *http.Client
	st      *store.FileStore
	tmp     string

	// bodies[plan][kind] is the encoded request, built once so the
	// generator does no JSON work inside the timed window.
	bodies [][2][]byte
	// home[plan] is the plan's home node on the fleet, entries[plan]
	// the two nodes that are not.
	home    []int
	entries [][2]int

	// compile-cold compiles on a fresh service per pass; passLeft counts
	// the ops until the next one is due, and retired accumulates the
	// counters of the services already closed.
	passLeft int
	retired  counters
}

func request(p planSpec) service.CompileRequest {
	return service.CompileRequest{Source: p.Source, Strategy: p.Strategy, Processors: p.Procs}
}

// setUp builds the workload's system and brings it to the state the
// timed window starts from: every warm workload's plans compiled (and,
// for plan-churn, written through to the store). tmpRoot is where
// plan-churn's store directory is made.
func setUp(w *workload, exp *expectedFile, tmpRoot string) (e *env, err error) {
	e = &env{w: w}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if err := exp.covers(w.Plans); err != nil {
		return e, err
	}
	for _, p := range w.Plans {
		pp, _ := exp.plan(p)
		rp, _ := exp.run(p)
		e.planExp, e.runExp = append(e.planExp, pp), append(e.runExp, rp)
		var pair [2][]byte
		if pair[opCompile], err = json.Marshal(request(p)); err != nil {
			return e, err
		}
		pair[opExecute] = pair[opCompile] // an ExecuteRequest without chaos_seed is the same document
		e.bodies = append(e.bodies, pair)
	}
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.Clients}}

	switch w.Name {
	case wlCompileCold:
		// Nothing is shared between passes; one throw-away compile of
		// the smallest program proves the pipeline answers before timing.
		small := 0
		for i, p := range w.Plans {
			if p.Iterations() < w.Plans[small].Iterations() {
				small = i
			}
		}
		_, err = e.do(op{Plan: small, Kind: opCompile})
		e.endPass()
		return e, err
	case wlExecuteWarm:
		e.svcs = []*service.Service{service.New(service.Config{})}
	case wlPlanChurn:
		if e.tmp, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
			return e, err
		}
		if e.st, err = store.Open(e.tmp, store.Options{}); err != nil {
			return e, err
		}
		svc, err := service.NewWithStore(service.Config{Store: e.st, CacheEntries: churnCacheEntries})
		if err != nil {
			return e, err
		}
		e.svcs = []*service.Service{svc}
	case wlFleetForward:
		for i := 0; i < fleetNodes; i++ {
			e.svcs = append(e.svcs, service.New(service.Config{}))
		}
	}

	// Real listeners first: fleet peers need each other's URLs.
	var peers []cluster.Peer
	for i := range e.svcs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, err
		}
		e.lns = append(e.lns, ln)
		e.urls = append(e.urls, "http://"+ln.Addr().String())
		peers = append(peers, cluster.Peer{Name: fmt.Sprintf("n%d", i), URL: e.urls[i]})
	}
	for i, svc := range e.svcs {
		h := svc.Handler()
		if w.Name == wlFleetForward {
			// Replicas 2, no hedging, bounded load off: routing is a pure
			// function of the key, so the bench can name each plan's home.
			node, nerr := cluster.NewNode(svc, cluster.Config{Self: peers[i].Name, Peers: peers, Replicas: 2, LoadBound: -1})
			if nerr != nil {
				return e, nerr
			}
			e.nodes = append(e.nodes, node)
			h = node.Handler()
		}
		srv := &http.Server{Handler: h}
		e.servers = append(e.servers, srv)
		e.served.Add(1)
		go func(ln net.Listener) {
			defer e.served.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed at Shutdown
		}(e.lns[i])
	}

	for i, p := range w.Plans {
		if w.Name == wlFleetForward {
			nres, nerr := normalize.Source(p.Source)
			if nerr != nil {
				return e, fmt.Errorf("%s: %w", p.ID(), nerr)
			}
			owner, _ := e.nodes[0].Ring().Owner(cluster.KeyHash(lang.Canonical(nres.Nest)))
			var home int
			var others []int
			for n, peer := range peers {
				if peer.Name == owner {
					home = n
				} else {
					others = append(others, n)
				}
			}
			e.home = append(e.home, home)
			e.entries = append(e.entries, [2]int{others[0], others[1]})
		}
		// Compiling through the front door puts the plan where the timed
		// window expects it: in the cache, in the store, on its home node.
		if _, err := e.do(op{Plan: i, Kind: opCompile}); err != nil {
			return e, fmt.Errorf("set-up compile of %s: %w", p.ID(), err)
		}
	}
	return e, nil
}

// close stops every server, closes every service and store, and
// removes the store directory; it returns once all of them are gone.
func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if len(e.nodes) > 0 {
		// Nodes forward through http.DefaultTransport.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range e.servers {
		_ = srv.Shutdown(ctx)
	}
	e.served.Wait()
	for _, ln := range e.lns {
		_ = ln.Close() // already closed by Shutdown unless set-up failed before Serve
	}
	for _, svc := range e.svcs {
		svc.Close()
	}
	if e.st != nil {
		_ = e.st.Close()
	}
	if e.tmp != "" {
		_ = os.RemoveAll(e.tmp)
	}
}

// endPass retires compile-cold's per-pass service.
func (e *env) endPass() {
	if e.w.Name != wlCompileCold || len(e.svcs) == 0 {
		return
	}
	e.retired = e.serviceCounters()
	e.svcs[0].Close()
	e.svcs, e.passLeft = nil, 0
}

// do sends one generated request, times it from the client side and
// verifies the response. The clock covers the call and reading the
// whole reply; decoding and checking happen after it stops.
func (e *env) do(o op) (time.Duration, error) {
	p := e.w.Plans[o.Plan]
	if e.w.Name == wlCompileCold {
		if e.passLeft == 0 {
			e.endPass()
			e.svcs = []*service.Service{service.New(service.Config{})}
			e.passLeft = len(e.w.Plans)
		}
		e.passLeft--
		t0 := time.Now()
		resp, err := e.svcs[0].Compile(context.Background(), request(p))
		dur := time.Since(t0)
		if err != nil {
			return dur, err
		}
		return dur, checkCompile(pinOf(resp), e.planExp[o.Plan])
	}
	target := 0
	if e.entries != nil {
		target = e.entries[o.Plan][o.Entry]
	}
	dur, data, err := e.post(target, o)
	if err != nil {
		return dur, err
	}
	if o.Kind == opCompile {
		var v compileView
		if err := json.Unmarshal(data, &v); err != nil {
			return dur, err
		}
		have, err := v.pin()
		if err != nil {
			return dur, err
		}
		return dur, checkCompile(have, e.planExp[o.Plan])
	}
	var v executeView
	if err := json.Unmarshal(data, &v); err != nil {
		return dur, err
	}
	return dur, checkExecute(v, e.runExp[o.Plan])
}

// post sends the op's request to the node and returns the reply body.
func (e *env) post(node int, o op) (time.Duration, []byte, error) {
	url := e.urls[node] + "/v1/" + o.Kind.String()
	t0 := time.Now()
	resp, err := e.client.Post(url, "application/json", bytes.NewReader(e.bodies[o.Plan][o.Kind]))
	if err != nil {
		return time.Since(t0), nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(t0)
	if err != nil {
		return dur, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return dur, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return dur, data, nil
}

// sample is one op of a window. It holds no pointers, so a log of them
// can live outside the Go heap.
type sample struct {
	start, dur time.Duration
	plan       int32
	round      int32 // compile-cold: the pass it belongs to
	ok         bool
}

// sampleLog is one client's append-only record of a window, in memory
// mapped outside the Go heap. The services under test keep a live heap
// of a few MiB, where the collector runs hundreds of times a second and
// its cost depends on the heap's size; a log growing inside that heap
// would make the system faster second by second and the window
// unrepeatable. Pages are only touched as the log fills.
type sampleLog struct {
	mem []byte
	all []sample
	n   int
}

const sampleLogBytes = 64 << 20 // room for 60 s at more than 40 000 ops/s

func newSampleLog() (*sampleLog, error) {
	mem, err := syscall.Mmap(-1, 0, sampleLogBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the sample log: %w", err)
	}
	size := int(unsafe.Sizeof(sample{}))
	return &sampleLog{mem: mem, all: unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), len(mem)/size)}, nil
}

// drive runs the closed loop for d: every client sends its next request
// when the previous reply has been verified. next[c] is where client c
// is in its stream, so the timed window continues where warm-up
// stopped. compile-cold only stops between passes, so every program has
// the same number of samples. Failed ops are named in failures.
func (e *env) drive(d time.Duration, next []int) (samples []sample, failures []string, elapsed time.Duration, err error) {
	logs := make([]*sampleLog, e.w.Clients)
	for c := range logs {
		if logs[c], err = newSampleLog(); err != nil {
			return nil, nil, 0, err
		}
		defer syscall.Munmap(logs[c].mem)
	}
	var failMu sync.Mutex
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.w.Clients; c++ {
		wg.Add(1)
		go func(c int, log *sampleLog) {
			defer wg.Done()
			for k := next[c]; ; k++ {
				atPass := e.w.Name != wlCompileCold || e.passLeft == 0
				if atPass && time.Since(begin) >= d || log.n == len(log.all) {
					next[c] = k
					return
				}
				o := e.w.Op(c, k)
				start := time.Since(begin)
				dur, err := e.do(o)
				log.all[log.n] = sample{start, dur, int32(o.Plan), int32((k - next[c]) / len(e.w.Plans)), err == nil}
				log.n++
				if err != nil {
					failMu.Lock()
					if len(failures) < 5 {
						failures = append(failures, fmt.Sprintf("client %d op %d (%s %s): %v", c, k, o.Kind, e.w.Plans[o.Plan].ID(), err))
					}
					failMu.Unlock()
				}
			}
		}(c, logs[c])
	}
	wg.Wait()
	elapsed = time.Since(begin)
	for _, log := range logs {
		samples = append(samples, log.all[:log.n]...)
	}
	return samples, failures, elapsed, nil
}

// counters are the program's and the runtime's own counts, read before
// and after the timed window.
type counters struct {
	compiles, forwardedIn, hits, misses int64
	storeGets, storePuts                int64
	mallocs, allocBytes, gcPauseNS      uint64
	cpu                                 time.Duration
}

// serviceCounters sums the program's own counters over the live
// services and the ones compile-cold has already closed.
func (e *env) serviceCounters() counters {
	c := e.retired
	for _, svc := range e.svcs {
		c.compiles += svc.Metrics().Counter("compiles")
		c.forwardedIn += svc.Metrics().Counter("cluster_forwarded_in")
		cs := svc.CacheStats()
		c.hits, c.misses = c.hits+cs.Hits, c.misses+cs.Misses
	}
	if e.st != nil {
		ss := e.st.Stats()
		c.storeGets, c.storePuts = ss.Gets, ss.Puts
	}
	return c
}

func (e *env) snapshot() counters {
	c := e.serviceCounters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNS = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	c.cpu = cpuTime()
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		c.compiles - b.compiles, c.forwardedIn - b.forwardedIn, c.hits - b.hits, c.misses - b.misses,
		c.storeGets - b.storeGets, c.storePuts - b.storePuts,
		c.mallocs - b.mallocs, c.allocBytes - b.allocBytes, c.gcPauseNS - b.gcPauseNS, c.cpu - b.cpu,
	}
}

// programRow is one program's line of the per-program table.
type programRow struct {
	ID         string  `json:"id"`
	Iterations int     `json:"iterations"`
	Samples    int     `json:"samples"`
	MedianMS   float64 `json:"median_ms"`
}

// window is what a timed window yields.
type window struct {
	metrics   map[string]float64 // the end-to-end metrics, setup_s aside
	p99, max  float64            // µs, over the whole window
	ok        int
	attempted int
	failures  []string
	rounds    int // whole rounds in the window
	pooled    int // ops in the quietest rounds, behind every percentile
	programs  []programRow
	delta     counters
}

// quietRounds is how many rounds of a window the metrics are taken
// from. The box this runs on is a shared two-core VM that slows the
// program down in episodes of seconds to minutes (other tenants, memory
// reclaim), and that noise only ever adds time: medians over the whole
// window moved by a fifth from run to run, the quietest rounds by 5–14%
// (bench/README.md has the measurements). A round still holds thousands of ops and hundreds of
// collector cycles (or one whole pass of compile-cold), so allocation
// and collection cost stay inside every number.
const quietRounds = 3

// summarize turns a window's samples into the end-to-end metrics. A
// round is a pass (compile-cold) or a one-second slice; the rounds are
// ranked by median latency (passes by total latency) and the
// quietRounds best are pooled. Percentiles, throughput and every
// program's median come from that pool; the tail rows (p99, max) from
// the whole window.
func (e *env) summarize(samples []sample, elapsed time.Duration) window {
	w := window{metrics: map[string]float64{}, attempted: len(samples)}
	cold := e.w.Name == wlCompileCold
	whole := int(elapsed / sliceLen)
	type round struct {
		samples                  []sample
		first, firstEnd, lastEnd time.Duration
		score                    float64
	}
	byRound := map[int]*round{}
	var all []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		w.ok++
		all = append(all, us(s.dur))
		r, end := int(s.round), s.start+s.dur
		if !cold {
			if r = int(end / sliceLen); r >= whole {
				continue // the partial last slice
			}
		}
		rd := byRound[r]
		if rd == nil {
			rd = &round{first: s.start, firstEnd: end}
			byRound[r] = rd
		}
		rd.samples = append(rd.samples, s)
		rd.firstEnd, rd.lastEnd = min(rd.firstEnd, end), max(rd.lastEnd, end)
	}
	w.p99, w.max = percentile(all, 0.99), percentile(all, 1)
	w.rounds = len(byRound)

	ranked := make([]*round, 0, len(byRound))
	for _, rd := range byRound {
		var lat []float64
		for _, s := range rd.samples {
			lat = append(lat, us(s.dur))
			rd.score += us(s.dur)
		}
		if !cold {
			rd.score = median(lat)
		}
		ranked = append(ranked, rd)
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score < ranked[j].score })
	if len(ranked) > quietRounds {
		ranked = ranked[:quietRounds]
	}

	var pool []float64
	perPlan := make([][]float64, len(e.w.Plans))
	var done float64
	var span time.Duration
	for _, rd := range ranked {
		for _, s := range rd.samples {
			pool = append(pool, us(s.dur))
			perPlan[s.plan] = append(perPlan[s.plan], us(s.dur)/1000)
		}
		if cold {
			// A pass: its programs over its wall time.
			done, span = done+float64(len(rd.samples)), span+rd.lastEnd-rd.first
		} else {
			// A slice: the completions after its first over the time they
			// took, which does not quantize to whole ops per second.
			done, span = done+float64(len(rd.samples)-1), span+rd.lastEnd-rd.firstEnd
		}
	}
	w.pooled = len(pool)
	w.metrics["latency_p50_us"] = percentile(pool, 0.5)
	w.metrics["latency_p90_us"] = percentile(pool, 0.9)
	if span > 0 {
		w.metrics["throughput_ops_s"] = done / span.Seconds()
	}
	var medians []float64
	for i, lat := range perPlan {
		if len(lat) == 0 {
			continue
		}
		p := e.w.Plans[i]
		w.programs = append(w.programs, programRow{p.ID(), p.Iterations(), len(lat), median(lat)})
		medians = append(medians, median(lat))
	}
	sort.Slice(w.programs, func(i, j int) bool { return w.programs[i].MedianMS < w.programs[j].MedianMS })
	w.metrics["geomean_op_ms"] = geomean(medians)
	return w
}
