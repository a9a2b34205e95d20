package cluster

// Node is the cluster routing front end wrapped around one
// service.Service. POST /v1/compile and /v1/execute are routed by the
// consistent-hash ring over the canonical source hash: the home node
// serves locally (its plan cache is the shard authority), every other
// node transparently forwards, with
//
//   - bounded failover: a refused forward feeds the failure detector
//     and falls through to the next replica, ending at local service
//     as the last resort — a routed request is never lost;
//   - hedged requests: when the home node has not answered within
//     HedgeAfter, the same request is fired at the next replica and
//     the first response wins (the loser is canceled);
//   - trace propagation without trace traffic: a forward carries
//     X-Commfree-Trace out and the peer's trace ID comes back in a
//     response header, so the request costs one peer round trip; the
//     winning "forward" span keeps (peer, remote trace ID), and the
//     remote span tree is fetched and joined under it the first time
//     GET /v1/trace/{id} on the entry node reads that trace — which
//     then shows the whole cross-node request;
//   - drain awareness: a draining node answers 503 + Retry-After
//     before any routing or queueing, so peers re-route immediately
//     instead of piling requests behind the worker-pool drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"commfree/internal/chaos"
	"commfree/internal/obs"
	"commfree/internal/service"
)

// HeaderForwarded marks a peer-forwarded request (value: the sender's
// node name); a node never re-forwards such a request.
const HeaderForwarded = "X-Commfree-Forwarded"

// HeaderTrace propagates trace context on forwarded and hedged
// requests: "<trace_id>:<parent_span_id>".
const HeaderTrace = "X-Commfree-Trace"

// maxForwardRespBytes bounds a forwarded response body (plans carry
// generated source, so allow plenty).
const maxForwardRespBytes = 16 << 20

// Peer names one cluster member.
type Peer struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config tunes a Node. Zero values select the documented defaults.
type Config struct {
	// Self is this node's name; it must appear in Peers.
	Self string
	// Peers is the static peer set (self included).
	Peers []Peer
	// Replicas is R: one home plus R−1 replicas per plan (default 2,
	// capped at the peer count).
	Replicas int
	// HedgeAfter is the latency budget after which a forwarded request
	// is hedged to the next replica (0 disables hedging).
	HedgeAfter time.Duration
	// LoadBound is the bounded-load factor c: a candidate whose
	// in-flight forwards exceed c × mean is demoted behind its
	// under-loaded replicas (default 1.25; negative disables).
	LoadBound float64
	// SuspectAfter is the consecutive missed heartbeats before a peer
	// is marked down (default 3).
	SuspectAfter int
	// HeartbeatS is the simulated seconds one heartbeat round advances
	// the detector clock (default 1).
	HeartbeatS float64
	// Seed enables seed-pure membership chaos in the failure detector
	// (crashed peers, dropped heartbeats) — tests and conformance only.
	// Chaos tunes the mix; its zero value means chaos.ClusterConfig().
	Seed  int64
	Chaos chaos.Config
	// Transport reaches peers (default http.DefaultTransport); the
	// in-process fleets use a MapTransport.
	Transport http.RoundTripper
}

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return c, errors.New("cluster: Self is required")
	}
	found := false
	seen := map[string]bool{}
	for _, p := range c.Peers {
		if p.Name == "" {
			return c, errors.New("cluster: peer with empty name")
		}
		if seen[p.Name] {
			return c, fmt.Errorf("cluster: duplicate peer %q", p.Name)
		}
		seen[p.Name] = true
		if p.Name == c.Self {
			found = true
		}
	}
	if !found {
		return c, fmt.Errorf("cluster: Self %q not in peer set", c.Self)
	}
	// Replicas is deliberately not capped at the *initial* peer count:
	// membership is dynamic, and Ring.Replicas clamps per call against
	// the live member set.
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.LoadBound == 0 {
		c.LoadBound = 1.25
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.HeartbeatS <= 0 {
		c.HeartbeatS = 1
	}
	if c.Seed != 0 && c.Chaos == (chaos.Config{}) {
		c.Chaos = chaos.ClusterConfig()
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	return c, nil
}

// ownedCap bounds the routed-key ownership map used for rebalance
// accounting.
const ownedCap = 4096

// Node wraps a service with cluster routing.
type Node struct {
	cfg   Config
	svc   *service.Service
	local http.Handler
	det   *Detector
	sched *chaos.Schedule

	// Membership state: the current epoch's member set. cfg.Peers is
	// only the epoch-0 seed; joins and leaves replace members/urls/names
	// under memberMu and bump epoch (see membership.go).
	memberMu sync.RWMutex
	epoch    int64
	members  []Peer
	urls     map[string]string
	names    []string

	client *http.Client

	ringMu      sync.RWMutex
	ring        *Ring
	ringVersion atomic.Int64

	loadMu   sync.Mutex
	inflight map[string]*atomic.Int64

	// shedUntil backs shed-aware failover ordering: a peer that answered
	// 429 is demoted behind its replicas until its own Retry-After hint
	// expires, so the fleet stops hammering a node that is actively
	// shedding instead of re-discovering the 429 on every request.
	shedMu    sync.Mutex
	shedUntil map[string]time.Time

	ownedMu sync.Mutex
	owned   map[uint64]string
}

// NewNode builds the routing node around the service. The service's
// metrics registry gains the per-peer cluster series.
func NewNode(svc *service.Service, cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		svc:       svc,
		local:     svc.Handler(),
		urls:      map[string]string{},
		inflight:  map[string]*atomic.Int64{},
		owned:     map[uint64]string{},
		shedUntil: map[string]time.Time{},
	}
	for _, p := range cfg.Peers {
		n.members = append(n.members, Peer{Name: p.Name, URL: strings.TrimSuffix(p.URL, "/")})
		n.urls[p.Name] = strings.TrimSuffix(p.URL, "/")
		n.names = append(n.names, p.Name)
		n.inflight[p.Name] = &atomic.Int64{}
	}
	sortPeers(n.members)
	n.client = &http.Client{Transport: cfg.Transport}
	if cfg.Seed != 0 {
		n.sched = chaos.NewSchedule(cfg.Seed, cfg.Chaos)
	}
	n.det = newDetector(cfg.Self, n.names, cfg.SuspectAfter, cfg.HeartbeatS, n.sched,
		healthProbe(n.client, n.urlOf))
	n.ring = NewRing(n.names, DefaultVNodes)
	n.det.setOnChange(n.rebalance)
	n.registerMetrics()
	for _, p := range cfg.Peers {
		n.registerPeerMetrics(p.Name)
	}
	return n, nil
}

// urlOf resolves a member's base URL under the current epoch ("" for a
// non-member).
func (n *Node) urlOf(peer string) string {
	n.memberMu.RLock()
	defer n.memberMu.RUnlock()
	return n.urls[peer]
}

// isMember reports whether the peer belongs to the current epoch.
func (n *Node) isMember(peer string) bool {
	n.memberMu.RLock()
	defer n.memberMu.RUnlock()
	_, ok := n.urls[peer]
	return ok
}

// memberNames snapshots the current member names, sorted.
func (n *Node) memberNames() []string {
	n.memberMu.RLock()
	defer n.memberMu.RUnlock()
	return append([]string(nil), n.names...)
}

// Members snapshots the current membership, sorted by name.
func (n *Node) Members() []Peer {
	n.memberMu.RLock()
	defer n.memberMu.RUnlock()
	return append([]Peer(nil), n.members...)
}

// Epoch returns the current membership epoch.
func (n *Node) Epoch() int64 {
	n.memberMu.RLock()
	defer n.memberMu.RUnlock()
	return n.epoch
}

// Detector exposes the failure detector (the daemon ticks it from a
// wall ticker; tests tick it directly).
func (n *Node) Detector() *Detector { return n.det }

// Ring returns the current (alive-membership) ring.
func (n *Node) Ring() *Ring {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.ring
}

// Self returns the node's name.
func (n *Node) Self() string { return n.cfg.Self }

func (n *Node) registerMetrics() {
	m := n.svc.Metrics()
	m.Gauge("cluster_peers", func() int64 { return int64(len(n.memberNames())) })
	m.Gauge("cluster_peers_alive", func() int64 { return int64(len(n.det.Alive())) })
	m.Gauge("cluster_replicas", func() int64 { return int64(n.cfg.Replicas) })
	m.Gauge("cluster_epoch", func() int64 { return n.Epoch() })
	m.Gauge("cluster_ring_version", func() int64 { return n.ringVersion.Load() })
	m.Gauge("cluster_owned_keys", func() int64 {
		n.ownedMu.Lock()
		defer n.ownedMu.Unlock()
		var c int64
		for _, owner := range n.owned {
			if owner == n.cfg.Self {
				c++
			}
		}
		return c
	})
	for shard := 0; shard < service.NumCacheShards; shard++ {
		shard := shard
		m.Gauge(fmt.Sprintf("cluster_shard_owned_keys_%d", shard), func() int64 {
			n.ownedMu.Lock()
			defer n.ownedMu.Unlock()
			var c int64
			for k, owner := range n.owned {
				if owner == n.cfg.Self && int(k%service.NumCacheShards) == shard {
					c++
				}
			}
			return c
		})
	}
}

// registerPeerMetrics adds (or re-arms) the per-peer gauge series.
// Called at construction for the seed peers and again on every join;
// the closures are membership-guarded so a departed peer's series reads
// 0 instead of a stale health bit.
func (n *Node) registerPeerMetrics(p string) {
	if p == n.cfg.Self {
		return
	}
	m := n.svc.Metrics()
	m.Gauge("cluster_peer_up_"+p, func() int64 {
		if n.isMember(p) && n.det.Up(p) {
			return 1
		}
		return 0
	})
	m.Gauge("cluster_peer_inflight_"+p, func() int64 { return n.loadOf(p).Load() })
}

func (n *Node) loadOf(peer string) *atomic.Int64 {
	n.loadMu.Lock()
	defer n.loadMu.Unlock()
	l, ok := n.inflight[peer]
	if !ok {
		l = &atomic.Int64{}
		n.inflight[peer] = l
	}
	return l
}

// rebalance rebuilds the ring over the new alive set and re-derives
// ownership of every tracked key, counting the moves.
func (n *Node) rebalance(alive []string) {
	ring := NewRing(alive, DefaultVNodes)
	n.ringMu.Lock()
	n.ring = ring
	n.ringMu.Unlock()
	n.ringVersion.Add(1)
	moves := int64(0)
	n.ownedMu.Lock()
	for k, prev := range n.owned {
		if now, ok := ring.Owner(k); ok && now != prev {
			n.owned[k] = now
			moves++
		}
	}
	n.ownedMu.Unlock()
	n.svc.Metrics().Inc("cluster_rebalances", 1)
	if moves > 0 {
		n.svc.Metrics().Inc("cluster_rebalance_moves", moves)
	}
}

// trackOwner records the key's current home for rebalance accounting.
func (n *Node) trackOwner(key uint64, owner string) {
	n.ownedMu.Lock()
	if _, ok := n.owned[key]; !ok && len(n.owned) >= ownedCap {
		for k := range n.owned { // drop an arbitrary entry; accounting is best-effort
			delete(n.owned, k)
			break
		}
	}
	n.owned[key] = owner
	n.ownedMu.Unlock()
}

// Handler returns the cluster-aware HTTP handler: the two routed
// endpoints, GET /v1/cluster status, trace reads (which join a
// forwarded request's remote subtree first), and everything else served
// by the local service (metrics, healthz).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) { n.route(w, r) })
	mux.HandleFunc("/v1/execute", func(w http.ResponseWriter, r *http.Request) { n.route(w, r) })
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, r *http.Request) { n.handleStatus(w, r) })
	mux.HandleFunc("/v1/cluster/membership", func(w http.ResponseWriter, r *http.Request) { n.handleMembership(w, r) })
	mux.HandleFunc("/v1/cluster/migrate", func(w http.ResponseWriter, r *http.Request) { n.handleMigrate(w, r) })
	mux.HandleFunc("/v1/cluster/plans", func(w http.ResponseWriter, r *http.Request) { n.handlePlans(w, r) })
	mux.HandleFunc("/v1/trace/", func(w http.ResponseWriter, r *http.Request) { n.handleTrace(w, r) })
	mux.Handle("/", n.local)
	return mux
}

// writeDraining is the cluster-aware drain response: 503 with
// Retry-After so peers (and clients) re-route immediately rather than
// queueing behind the worker-pool drain.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": "draining, re-route to a replica"})
}

// route is the shared /v1/compile + /v1/execute front door.
func (n *Node) route(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		n.local.ServeHTTP(w, r)
		return
	}
	if n.svc.Draining() {
		n.svc.Metrics().Inc("cluster_drain_rejects", 1)
		writeDraining(w)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(n.svc.MaxSourceBytes())+4096))
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	if from := r.Header.Get(HeaderForwarded); from != "" {
		// Terminal hop: a forwarded request is always served here.
		n.svc.Metrics().Inc("cluster_forwarded_in", 1)
		n.serveLocal(w, r, body, true)
		return
	}

	// Routing key: the hash of the canonical rendering of the submitted
	// nest after normalization, so an affine source and its
	// hand-uniformized twin hash to the same home node fleet-wide. It comes
	// from the service's source-key memo, which the service's own cache-key
	// derivation reads too: a source is parsed once per node, not once per
	// layer. A request that does not parse (or is rejected by the pass) is
	// served locally — the service produces the authoritative 400/422.
	var probe struct {
		Source string `json:"source"`
	}
	if json.Unmarshal(body, &probe) != nil || probe.Source == "" {
		n.serveLocal(w, r, body, false)
		return
	}
	sk, perr := n.svc.SourceKey(probe.Source)
	if perr != nil {
		n.serveLocal(w, r, body, false)
		return
	}
	key := sk.Hash

	ring := n.Ring()
	if owner, ok := ring.Owner(key); ok {
		n.trackOwner(key, owner)
	}
	loadFn := func(p string) int64 { return n.loadOf(p).Load() }
	cands := ring.Route(key, n.cfg.Replicas, n.det.Up, loadFn, n.cfg.LoadBound)
	cands = n.demoteShed(time.Now(), cands)
	if len(cands) == 0 || cands[0] == n.cfg.Self {
		n.svc.Metrics().Inc("cluster_served_local", 1)
		n.serveLocal(w, r, body, false)
		return
	}
	n.forward(w, r, body, key, cands)
}

// serveLocal replays the buffered body into the local service handler.
// A forwarded-in request hands the caller's trace context to the service
// through the request context, so the local trace starts with a
// remote_parent span and both halves of the cross-node tree can be
// joined from either side.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte, forwarded bool) {
	ctx := r.Context()
	if remote := r.Header.Get(HeaderTrace); forwarded && remote != "" {
		trace, span := splitTraceHeader(remote)
		ctx = service.WithRemoteParent(ctx, service.RemoteParent{Trace: trace, Span: span, From: r.Header.Get(HeaderForwarded)})
	}
	r2 := r.Clone(ctx)
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	n.local.ServeHTTP(w, r2)
}

func splitTraceHeader(h string) (trace string, span int64) {
	trace = h
	if i := strings.LastIndexByte(h, ':'); i >= 0 {
		trace = h[:i]
		span, _ = strconv.ParseInt(h[i+1:], 10, 64)
	}
	return trace, span
}

// retryableStatus reports whether a forwarded response means "try the
// next replica": 429 (admission shed), 502, and 503 (draining or
// proxy-dead) re-route; everything else — including client errors —
// is a real answer.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable
}

// forward relays the request across the candidate list (home first),
// hedging each remote attempt to the next remote replica after
// HedgeAfter, falling back to local service when every remote refuses.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, body []byte, key uint64, cands []string) {
	m := n.svc.Metrics()
	trc := obs.New("route")
	root := trc.Start(0, "route")
	root.SetStr("home", cands[0])
	root.SetInt("key", int64(key))
	// finish publishes the route trace. A forwarded reply is written after
	// it, so the trace_id the client reads already resolves here.
	finish := func(servedBy string) {
		root.SetStr("served_by", servedBy)
		root.End()
		n.svc.Traces().Add(trc)
		m.ObserveTrace(trc)
	}

	remaining := cands
	for len(remaining) > 0 {
		target := remaining[0]
		if target == n.cfg.Self {
			m.Inc("cluster_served_local", 1)
			n.serveLocal(w, r, body, false)
			finish(n.cfg.Self)
			return
		}
		hedgePeer := ""
		for _, c := range remaining[1:] {
			if c != n.cfg.Self {
				hedgePeer = c
				break
			}
		}
		res, ok := n.forwardHedged(r, trc, root.ID(), target, hedgePeer, body)
		if ok {
			if res.remoteTrace != "" {
				// Only the winner is linked: a hedge's loser was canceled
				// and its trace, if any, served nobody.
				trc.LinkRemote(obs.Remote{Under: res.span, Peer: res.peer, TraceID: res.remoteTrace})
			}
			finish(res.peer)
			n.writeForwarded(w, trc.ID(), res)
			return
		}
		remaining = remaining[1:]
	}
	// Every remote replica refused: serve locally so no routed request
	// is ever lost (bounded by Replicas attempts above).
	m.Inc("cluster_forward_fallback_local", 1)
	n.serveLocal(w, r, body, false)
	finish(n.cfg.Self)
}

// noteShed records a peer's 429 with its Retry-After hint; routing
// demotes the peer until the hint expires (bounded to [1s, 30s]).
func (n *Node) noteShed(peer string, retryAfter time.Duration) {
	if retryAfter < time.Second {
		retryAfter = time.Second
	}
	if retryAfter > 30*time.Second {
		retryAfter = 30 * time.Second
	}
	n.shedMu.Lock()
	n.shedUntil[peer] = time.Now().Add(retryAfter)
	n.shedMu.Unlock()
}

// demoteShed stably partitions the candidate list: peers without a live
// shed-backoff keep their ring order up front, recently-shed peers move
// to the back (still tried — shedding is not death, and the backoff is
// only a hint). Expired entries are pruned in passing.
func (n *Node) demoteShed(now time.Time, cands []string) []string {
	n.shedMu.Lock()
	var shed []string
	out := cands[:0:len(cands)]
	for _, c := range cands {
		until, ok := n.shedUntil[c]
		if ok && now.After(until) {
			delete(n.shedUntil, c)
			ok = false
		}
		if ok && c != n.cfg.Self {
			shed = append(shed, c)
		} else {
			out = append(out, c)
		}
	}
	n.shedMu.Unlock()
	if len(shed) > 0 {
		n.svc.Metrics().Inc("cluster_shed_demotions", int64(len(shed)))
		out = append(out, shed...)
	}
	return out
}

// fwdResult is one forwarded response.
type fwdResult struct {
	peer        string
	status      int
	body        []byte
	retryAfter  time.Duration // Retry-After hint on 429/503 responses
	remoteTrace string        // the peer's trace ID for this request (200s)
	err         error
	hedge       bool
	span        obs.SpanID
}

// forwardHedged sends the request to primary, hedging to hedgePeer
// after the latency budget. ok=false means every attempt failed with a
// transport error or a retryable status.
func (n *Node) forwardHedged(r *http.Request, trc *obs.Trace, parent obs.SpanID, primary, hedgePeer string, body []byte) (fwdResult, bool) {
	m := n.svc.Metrics()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	resc := make(chan fwdResult, 2)
	send := func(peer string, hedge bool) {
		name := "forward"
		if hedge {
			name = "hedge"
		}
		sp := trc.Start(parent, name)
		sp.SetStr("peer", peer)
		go func() {
			load := n.loadOf(peer)
			load.Add(1)
			res := n.doRequest(ctx, peer, r.URL.Path, body, trc.ID(), parent)
			load.Add(-1)
			sp.SetInt("status", int64(res.status))
			if res.remoteTrace != "" {
				sp.SetStr("remote_trace", res.remoteTrace)
			}
			if res.err != nil {
				sp.SetStr("error", res.err.Error())
			}
			sp.End()
			res.hedge, res.span = hedge, sp.ID()
			resc <- res
		}()
	}

	m.Inc("cluster_forwards", 1)
	m.Inc("cluster_forwards_to_"+primary, 1)
	send(primary, false)
	inflight := 1
	hedged := false
	var hedgeC <-chan time.Time
	if hedgePeer != "" && n.cfg.HedgeAfter > 0 {
		t := time.NewTimer(n.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var failed fwdResult
	for inflight > 0 {
		select {
		case res := <-resc:
			if res.err == nil && !retryableStatus(res.status) {
				n.det.ReportSuccess(res.peer)
				if hedged {
					if res.hedge {
						m.Inc("cluster_hedges_won", 1)
					} else {
						m.Inc("cluster_hedges_lost", 1)
					}
				}
				cancel() // release the loser
				return res, true
			}
			inflight--
			failed = res
			m.Inc("cluster_forward_errors", 1)
			m.Inc("cluster_forward_errors_"+res.peer, 1)
			if res.err == nil && res.status == http.StatusTooManyRequests {
				// Shedding is backpressure, not death: demote the peer
				// for its own Retry-After instead of feeding the
				// failure detector.
				n.noteShed(res.peer, res.retryAfter)
			}
			if res.err != nil || res.status == http.StatusServiceUnavailable || res.status == http.StatusBadGateway {
				n.det.ReportFailure(res.peer)
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			m.Inc("cluster_hedges", 1)
			m.Inc("cluster_forwards_to_"+hedgePeer, 1)
			send(hedgePeer, true)
			inflight++
		}
	}
	return failed, false
}

// doRequest performs one forwarded POST with trace-context headers,
// capturing the peer's trace ID and the Retry-After hint carried by
// 429/503 refusals.
func (n *Node) doRequest(ctx context.Context, peer, path string, body []byte, traceID string, parent obs.SpanID) fwdResult {
	out := fwdResult{peer: peer}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.urlOf(peer)+path, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, n.cfg.Self)
	req.Header.Set(HeaderTrace, traceID+":"+strconv.Itoa(int(parent)))
	res, err := n.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer res.Body.Close()
	out.status = res.StatusCode
	out.remoteTrace = res.Header.Get(service.HeaderTraceID)
	if secs, perr := strconv.Atoi(res.Header.Get("Retry-After")); perr == nil && secs > 0 {
		out.retryAfter = time.Duration(secs) * time.Second
	}
	out.body, out.err = io.ReadAll(io.LimitReader(res.Body, maxForwardRespBytes))
	return out
}

// writeForwarded relays the winning response to the client byte for
// byte, except that the trace_id value becomes the local route trace's:
// the client's one trace ID resolves, on the node it actually talked to,
// to the full cross-node tree.
func (n *Node) writeForwarded(w http.ResponseWriter, localTrace string, res fwdResult) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Commfree-Served-By", res.peer)
	if res.remoteTrace != "" {
		w.Header().Set(service.HeaderTraceID, localTrace)
	}
	if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
		// Propagate the remote node's drain-rate-derived hint; fall
		// back to the old fixed hint when it sent none.
		ra := "1"
		if res.retryAfter > 0 {
			ra = strconv.Itoa(int(res.retryAfter / time.Second))
		}
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(spliceTraceID(res.body, res.remoteTrace, localTrace))
}

// spliceTraceID replaces the body's "trace_id":"<from>" member with
// <to> in place of a decode and re-encode. A JSON string cannot contain
// an unescaped quote, so the member's exact bytes match only where it is
// one; a body without it comes back unchanged.
func spliceTraceID(body []byte, from, to string) []byte {
	if from == "" {
		return body
	}
	member := []byte(`"trace_id":"` + from + `"`)
	i := bytes.LastIndex(body, member)
	if i < 0 {
		return body
	}
	out := make([]byte, 0, len(body)+len(to)-len(from))
	out = append(out, body[:i]...)
	out = append(out, `"trace_id":"`+to+`"`...)
	return append(out, body[i+len(member):]...)
}

// handleTrace serves GET /v1/trace/{id} like the local service does,
// after joining the trace's remote subtree if it has one still out.
func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		n.joinRemote(r.Context(), n.svc.Traces().Get(strings.TrimPrefix(r.URL.Path, "/v1/trace/")))
	}
	n.local.ServeHTTP(w, r)
}

// joinRemote resolves a route trace's link to the subtree its peer
// recorded, the first time the trace is read; later reads find it
// joined. An unreachable peer or an evicted remote trace leaves the
// local route/forward spans, the forward span marked remote=unavailable.
func (n *Node) joinRemote(ctx context.Context, trc *obs.Trace) {
	joined, err := trc.Join(ctx, n.fetchTrace)
	switch {
	case joined:
		n.svc.Metrics().Inc("cluster_trace_grafts", 1)
	case err != nil:
		n.svc.Metrics().Inc("cluster_trace_graft_errors", 1)
	}
}

// fetchTrace asks the peer for the export of one of its traces, under
// the reader's context with a short budget of its own: a trace page
// must render even mid-incident.
func (n *Node) fetchTrace(ctx context.Context, r obs.Remote) ([]obs.Span, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.urlOf(r.Peer)+"/v1/trace/"+r.TraceID, nil)
	if err != nil {
		return nil, err
	}
	res, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s on %s: status %d", r.TraceID, r.Peer, res.StatusCode)
	}
	var export obs.Export
	if err := json.NewDecoder(io.LimitReader(res.Body, maxForwardRespBytes)).Decode(&export); err != nil {
		return nil, fmt.Errorf("trace %s on %s: %w", r.TraceID, r.Peer, err)
	}
	return export.Spans, nil
}

// Status is the GET /v1/cluster document.
type Status struct {
	Self        string       `json:"self"`
	Replicas    int          `json:"replicas"`
	Epoch       int64        `json:"epoch"`
	RingVersion int64        `json:"ring_version"`
	Round       int          `json:"heartbeat_round"`
	SimClockS   float64      `json:"sim_clock_s"`
	Peers       []PeerStatus `json:"peers"`
}

// PeerStatus is one peer's health row. Plans is the peer's held plan
// count (cache ∪ store) — the convergence signal during a rebalance;
// -1 when the peer could not be asked.
type PeerStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	InFlight int64  `json:"in_flight"`
	Epoch    int64  `json:"epoch"`
	Plans    int    `json:"plans"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	st := Status{
		Self:        n.cfg.Self,
		Replicas:    n.cfg.Replicas,
		Epoch:       n.Epoch(),
		RingVersion: n.ringVersion.Load(),
		Round:       n.det.Round(),
		SimClockS:   n.det.SimClock(),
	}
	for _, p := range n.Members() {
		row := PeerStatus{
			Name:     p.Name,
			URL:      p.URL,
			Up:       n.det.Up(p.Name),
			InFlight: n.loadOf(p.Name).Load(),
		}
		if p.Name == n.cfg.Self {
			row.Epoch = n.Epoch()
			row.Plans = n.svc.PlanCount()
		} else {
			row.Epoch, row.Plans = n.peerPlans(r.Context(), p.Name)
		}
		st.Peers = append(st.Peers, row)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// peerPlans asks a peer for its epoch and plan count, best effort with
// a short budget: the status page must render even mid-incident.
func (n *Node) peerPlans(ctx context.Context, peer string) (epoch int64, plans int) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.urlOf(peer)+"/v1/cluster/plans", nil)
	if err != nil {
		return 0, -1
	}
	res, err := n.client.Do(req)
	if err != nil {
		return 0, -1
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return 0, -1
	}
	var doc PlansDoc
	if json.NewDecoder(io.LimitReader(res.Body, 1<<20)).Decode(&doc) != nil {
		return 0, -1
	}
	return doc.Epoch, doc.Plans
}

// PlansDoc is the GET /v1/cluster/plans document: the tiny per-node
// answer the status page aggregates.
type PlansDoc struct {
	Self  string `json:"self"`
	Epoch int64  `json:"epoch"`
	Plans int    `json:"plans"`
}

func (n *Node) handlePlans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(PlansDoc{Self: n.cfg.Self, Epoch: n.Epoch(), Plans: n.svc.PlanCount()})
}
