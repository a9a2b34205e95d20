package conformance

// Cluster dimension of the conformance suite: an n-node in-process
// fleet must be observationally identical to a single service. For the
// corpus × all four strategies, POST /v1/execute through a (rotating)
// cluster entry node must return a bit-identical execution document —
// same simulated timings, message counts, per-node workloads, and
// validation verdict — as the single-node reference, because routing
// and forwarding may move *where* a plan compiles but never *what* it
// computes. Under a seeded single-node-crash schedule the same must
// hold with zero lost requests: forwards to the crashed node fail fast,
// feed the failure detector, and fall through to a replica.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"commfree/internal/chaos"
	"commfree/internal/cluster"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/service"
)

// strategyNames are the wire names of the strategies the cluster
// dimensions sweep: the four theorem strategies plus MARS.
var strategyNames = []string{
	"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars",
}

// clusterProcs is the simulated machine size used by the cluster
// dimension (matches the chaos dimension).
const clusterProcs = 4

// execDoc is the deterministic projection of an ExecuteResponse: every
// field that is a pure function of (program, strategy, processors,
// engine). Wall-clock time, cache state, and trace IDs legitimately
// differ between nodes and are excluded; everything here must be
// bit-identical across the fleet.
type execDoc struct {
	Strategy          string
	Processors        int
	DistributionS     float64
	ComputeS          float64
	SimElapsedS       float64
	HostMessages      int64
	InterNodeMessages int64
	Iterations        string
	Engine            string
	Validated         bool
	Mismatches        int
	Elements          int
}

func docOf(r *service.ExecuteResponse) execDoc {
	return execDoc{
		Strategy:          r.Strategy,
		Processors:        r.Processors,
		DistributionS:     r.DistributionS,
		ComputeS:          r.ComputeS,
		SimElapsedS:       r.SimElapsedS,
		HostMessages:      r.HostMessages,
		InterNodeMessages: r.InterNodeMessages,
		Iterations:        fmt.Sprint(r.IterationsPerNode),
		Engine:            r.Engine,
		Validated:         r.Validated,
		Mismatches:        r.Mismatches,
		Elements:          r.Elements,
	}
}

// overCapStrides are the strides of the over-cap nests: each nest has
// four iterations, but with stride c A's bounding box is (c+2) × (c+2)
// elements, past the kernel's dense cap, so a service executes it on
// the map oracle through the exec_compile fallback.
var overCapStrides = []int{4096, 4099, 5003, 6007, 7919, 8192, 9001, 10007}

// overCapCorpus is the oracle engine's corpus: one over-cap nest per
// stride, distinct nests so a membership epoch has keys to move.
func overCapCorpus() []string {
	out := make([]string, len(overCapStrides))
	for i, c := range overCapStrides {
		out[i] = fmt.Sprintf(`for i = 1 to 2
  for j = 1 to 2
    A[i + %[1]dj, %[1]di + j] = A[i + %[1]dj - 1, %[1]di + j] + 1
  end
end
`, c)
	}
	return out
}

// clusterCorpus is the corpus the cluster, membership and restart
// dimensions sweep on the named served engine: "kernel" is lang.Corpus
// filtered down to valid nests small enough for the execution
// properties, "oracle" is overCapCorpus, and "" is both.
func clusterCorpus(engine string) []string {
	var out []string
	if engine != "kernel" {
		out = append(out, overCapCorpus()...)
	}
	if engine == "oracle" {
		return out
	}
	for _, src := range lang.Corpus() {
		nest, err := lang.Parse(src)
		if err != nil || nest.Validate() != nil {
			continue
		}
		if nest.NumIterations() > maxExecIterations {
			continue
		}
		out = append(out, src)
	}
	return out
}

// servedEngine is the engine a service must report for a corpus nest:
// the oracle fallback for an over-cap nest, the kernel otherwise.
func servedEngine(src string) string {
	for _, o := range overCapCorpus() {
		if src == o {
			return "oracle"
		}
	}
	return "kernel"
}

// checkEngine demands the response ran on the engine the nest is
// served by.
func checkEngine(dim string, ci int, src, strat, got string) error {
	if want := servedEngine(src); got != want {
		return fmt.Errorf("conformance: %s: corpus[%d] %s ran on engine %q, want %q", dim, ci, strat, got, want)
	}
	return nil
}

// CheckCluster runs the cluster dimension: an n-node in-process fleet
// against a single-node reference, the engine's corpus (see
// clusterCorpus) × the strategies. seed != 0 additionally replays a
// seeded membership fault schedule (a crashed node, dropped heartbeats)
// during the sweep; every request must still succeed with a
// bit-identical document.
func CheckCluster(nodes int, engine string, seed int64) error {
	base := service.Config{
		Workers:    4,
		QueueDepth: 64,
	}
	ref := service.New(base)
	defer ref.Close()

	fleet, err := cluster.NewLocal(nodes, base,
		cluster.WithReplicas(2),
		cluster.WithSeed(seed))
	if err != nil {
		return fmt.Errorf("conformance: cluster: %w", err)
	}
	defer fleet.Close()

	// The crash schedule the detectors consult also gates the transport:
	// requests to a peer inside its crash window fail like a refused
	// connection, keyed to the same shared heartbeat round the detectors
	// tick through — belief and reality replay from one seed.
	var round atomic.Int64
	var sched *chaos.Schedule
	if seed != 0 {
		sched = chaos.NewSchedule(seed, chaos.ClusterConfig())
		fleet.Transport.SetFail(func(host string) error {
			idx, err := strconv.Atoi(host[1:]) // hosts are n0..n{k}
			if err != nil {
				return nil
			}
			if sched.PeerCrashed(0, nodes, idx, int(round.Load())) {
				return fmt.Errorf("conformance: peer %s crashed (round %d)", host, round.Load())
			}
			return nil
		})
	}
	tick := func() {
		round.Add(1)
		fleet.Tick()
	}

	client := fleet.Client()
	corpus := clusterCorpus(engine)
	if len(corpus) == 0 {
		return fmt.Errorf("conformance: cluster corpus is empty")
	}

	entry := 0
	nextEntry := func() int {
		// Rotate over nodes a live client could actually reach (a real
		// client cannot connect to a crashed node).
		for i := 0; i < nodes; i++ {
			entry = (entry + 1) % nodes
			if sched == nil || !sched.PeerCrashed(0, nodes, entry, int(round.Load())) {
				return entry
			}
		}
		return entry
	}

	// check compares one fleet request against the single-node reference.
	check := func(ci int, src, strat string) error {
		req := service.ExecuteRequest{CompileRequest: service.CompileRequest{
			Source: src, Strategy: strat, Processors: clusterProcs,
		}}
		want, err := ref.Execute(context.Background(), req)
		if err != nil {
			return fmt.Errorf("conformance: cluster: reference execute failed (corpus[%d], %s): %w", ci, strat, err)
		}
		got, servedBy, err := postExecute(client, fleet.URL(nextEntry()), req).served()
		if err != nil {
			return fmt.Errorf("conformance: cluster: lost request (corpus[%d], %s, round %d): %w", ci, strat, round.Load(), err)
		}
		if d1, d2 := docOf(want), docOf(got); d1 != d2 {
			return fmt.Errorf("conformance: cluster: corpus[%d] %s: fleet (via %s) diverges from single node:\n single: %+v\n fleet:  %+v",
				ci, strat, servedBy, d1, d2)
		}
		if got.InterNodeMessages != 0 {
			return fmt.Errorf("conformance: cluster: corpus[%d] %s: %d inter-node messages", ci, strat, got.InterNodeMessages)
		}
		if !got.Validated {
			return fmt.Errorf("conformance: cluster: corpus[%d] %s: fleet result failed validation (%d mismatches)", ci, strat, got.Mismatches)
		}
		return checkEngine("cluster", ci, src, strat, got.Engine)
	}

	if seed != 0 {
		// Crash replay: march the heartbeat rounds through the victim's
		// whole crash window (plus the detection/recovery tail), each
		// round re-requesting the corpus nests whose plans are homed on
		// the victim — those requests MUST hit the crash, fail over to a
		// replica, and still return the reference document.
		victim := sched.PeerCrashVictim(0, nodes)
		start, wlen := sched.PeerCrashWindow(0, victim)
		fullRing := cluster.NewRing(fleet.Names)
		var probes []int
		for ci, src := range corpus {
			nest, _ := lang.Parse(src)
			owner, _ := fullRing.Owner(cluster.KeyHash(lang.Canonical(nest)))
			if owner == fleet.Names[victim] {
				probes = append(probes, ci)
			}
		}
		if len(probes) == 0 {
			return fmt.Errorf("conformance: cluster: seed %d elects victim %s but no corpus key is homed there — pick another seed", seed, fleet.Names[victim])
		}
		for r := 0; r < start+wlen+5; r++ {
			tick()
			for _, ci := range probes {
				if err := check(ci, corpus[ci], strategyNames[r%len(strategyNames)]); err != nil {
					return err
				}
			}
		}
		var fwdErrs int64
		for _, svc := range fleet.Services {
			fwdErrs += svc.Metrics().Counter("cluster_forward_errors")
		}
		if fwdErrs == 0 {
			return fmt.Errorf("conformance: cluster: crash schedule (seed %d, victim %s, window [%d,%d)) was vacuous — no forward ever failed over", seed, fleet.Names[victim], start, start+wlen)
		}
	}

	for ci, src := range corpus {
		nest, _ := lang.Parse(src)
		key := cluster.KeyHash(lang.Canonical(nest))
		if seed == 0 {
			// Routing purity: with stable membership every node derives
			// the same home for the key from (peer set, hash) alone.
			if err := checkPlacementAgreement(fleet, key); err != nil {
				return err
			}
		}
		for _, strat := range strategyNames {
			tick()
			if err := check(ci, src, strat); err != nil {
				return err
			}
		}
	}
	var fallbacks int64
	for _, svc := range fleet.Services {
		fallbacks += svc.Metrics().Counter("exec_compile_fallbacks")
	}
	switch {
	case engine == "kernel" && fallbacks != 0:
		return fmt.Errorf("conformance: cluster: %d exec_compile fallbacks on the kernel corpus", fallbacks)
	case engine != "kernel" && fallbacks == 0:
		return fmt.Errorf("conformance: cluster: no fleet node counted an exec_compile fallback for the over-cap nests")
	}
	return nil
}

// checkPlacementAgreement asserts every node's ring maps the key to
// the same home — routing is a pure function of (peer set, hash).
func checkPlacementAgreement(fleet *cluster.Local, key uint64) error {
	var home string
	for i, n := range fleet.Nodes {
		owner, ok := n.Ring().Owner(key)
		if !ok {
			return fmt.Errorf("conformance: cluster: node %s has an empty ring", fleet.Names[i])
		}
		if i == 0 {
			home = owner
		} else if owner != home {
			return fmt.Errorf("conformance: cluster: placement disagreement for key %#x: %s says %s, %s says %s",
				key, fleet.Names[0], home, fleet.Names[i], owner)
		}
	}
	return nil
}

// CheckClusterCompileFlight runs the compile-flight dimension:
// `requests` concurrent identical execute requests sprayed across
// rotating entry nodes must all route to the plan's home node and share
// its compile flight there — exactly one compile in the whole fleet,
// and all responses carrying the same validated execution document.
func CheckClusterCompileFlight(nodes, requests int) error {
	base := service.Config{Workers: 4, QueueDepth: 64}
	// One replica per plan: load-aware routing would otherwise be free
	// to spread concurrent requests over the replica set, which is
	// correct but defeats the single-compile assertion this check makes.
	fleet, err := cluster.NewLocal(nodes, base, cluster.WithReplicas(1))
	if err != nil {
		return fmt.Errorf("conformance: cluster: %w", err)
	}
	defer fleet.Close()
	client := fleet.Client()

	req := service.ExecuteRequest{CompileRequest: service.CompileRequest{
		Source: lang.Format(loop.L5(4)), Strategy: "duplicate", Processors: clusterProcs,
	}}
	resps := make([]*service.ExecuteResponse, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], _, errs[i] = postExecute(client, fleet.URL(i%nodes), req).served()
		}(i)
	}
	wg.Wait()

	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			return fmt.Errorf("conformance: cluster: request %d lost: %w", i, errs[i])
		}
		if !resps[i].Validated {
			return fmt.Errorf("conformance: cluster: request %d failed validation (%d mismatches)", i, resps[i].Mismatches)
		}
		if d1, d2 := docOf(resps[0]), docOf(resps[i]); d1 != d2 {
			return fmt.Errorf("conformance: cluster: request %d diverges:\n first: %+v\n this:  %+v", i, d1, d2)
		}
	}
	var compiles int64
	for _, svc := range fleet.Services {
		compiles += svc.Metrics().Counter("compiles")
	}
	if compiles != 1 {
		return fmt.Errorf("conformance: cluster: %d compiles across the fleet for %d identical requests, want exactly 1", compiles, requests)
	}
	return nil
}

// executeBudget is the per-request client budget. Requests complete in
// milliseconds; the generous budget exists so only a genuine hang — a
// request that neither completes nor is rejected — can expire it.
const executeBudget = 30 * time.Second

// executeOutcome is one POST /v1/execute as its client saw it, classified
// without judging: status, Retry-After, the node that served it, and the
// decoded response (200) or error text (anything else). err is a lost
// request — transport failure, expired budget, undecodable 200 — never an
// HTTP status.
type executeOutcome struct {
	status     int
	retryAfter string
	servedBy   string
	resp       *service.ExecuteResponse
	errText    string
	err        error
}

// postExecute POSTs the request to the entry node.
func postExecute(client *http.Client, baseURL string, req service.ExecuteRequest) executeOutcome {
	payload, err := json.Marshal(req)
	if err != nil {
		return executeOutcome{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), executeBudget)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/execute", bytes.NewReader(payload))
	if err != nil {
		return executeOutcome{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	res, err := client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("hung past %v: %w", executeBudget, err)
		}
		return executeOutcome{err: err}
	}
	defer res.Body.Close()
	out := executeOutcome{status: res.StatusCode, retryAfter: res.Header.Get("Retry-After"), servedBy: res.Header.Get("X-Commfree-Served-By")}
	if out.servedBy == "" {
		out.servedBy = "entry"
	}
	if res.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(res.Body).Decode(&e)
		out.errText = e.Error
		return out
	}
	out.resp = new(service.ExecuteResponse)
	if err := json.NewDecoder(res.Body).Decode(out.resp); err != nil {
		return executeOutcome{err: fmt.Errorf("200 with undecodable body: %w", err)}
	}
	return out
}

// served reads the outcome where anything but a 200 is a lost request:
// the response, which node served it, and the loss.
func (o executeOutcome) served() (*service.ExecuteResponse, string, error) {
	if o.err == nil && o.status != http.StatusOK {
		return nil, o.servedBy, fmt.Errorf("status %d: %s", o.status, o.errText)
	}
	return o.resp, o.servedBy, o.err
}
