package cluster

// The forward hop's cost contract: one peer round trip and at most one
// parse per node per distinct source on the request path, the peer's
// bytes relayed as they came, and the cross-node span tree assembled
// when — and only when — somebody reads the trace.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"commfree/internal/lang"
	"commfree/internal/normalize"
	"commfree/internal/service"
)

// peerCall is one request a node sent to a peer, with the reply's body.
type peerCall struct {
	from, to, method, path string
	body                   []byte
}

// peerLog records every node-to-peer round trip of a fleet: each node's
// transport is wrapped, the test's own client is not.
type peerLog struct {
	mu    sync.Mutex
	calls []peerCall
}

type loggingTransport struct {
	log   *peerLog
	from  string
	inner http.RoundTripper
}

func (t *loggingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := t.inner.RoundTrip(req)
	call := peerCall{from: t.from, to: req.URL.Host, method: req.Method, path: req.URL.Path}
	if err == nil {
		call.body, _ = io.ReadAll(res.Body)
		res.Body.Close()
		res.Body = io.NopCloser(bytes.NewReader(call.body))
	}
	t.log.mu.Lock()
	t.log.calls = append(t.log.calls, call)
	t.log.mu.Unlock()
	return res, err
}

// wrap is the LocalOption that installs the log on every node.
func (l *peerLog) wrap() LocalOption {
	return WithNodeConfig(func(c *Config) {
		c.Transport = &loggingTransport{log: l, from: c.Self, inner: c.Transport}
	})
}

// take returns the calls logged since the last take.
func (l *peerLog) take() []peerCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

func execRequest(src string) service.ExecuteRequest {
	return service.ExecuteRequest{CompileRequest: service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4}}
}

// forwardOnce posts a request for a source homed on Names[1] to another
// node and returns that entry node's name and the reply, checked to be a
// 200 served by the home.
func forwardOnce(t *testing.T, fleet *Local, path string, req any) (entry string, res *http.Response, body []byte) {
	t.Helper()
	entry = otherThan(t, fleet, fleet.Names[1])
	res, body = postJSON(t, fleet.Client(), "http://"+entry+path, req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	if got := res.Header.Get("X-Commfree-Served-By"); got != fleet.Names[1] {
		t.Fatalf("served by %q, want the home %q", got, fleet.Names[1])
	}
	return entry, res, body
}

func getTrace(t *testing.T, fleet *Local, node, id, query string) (int, string) {
	t.Helper()
	res, err := fleet.Client().Get("http://" + node + "/v1/trace/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body)
}

// TestForwardIsOneRoundTripAndOneParse: a forwarded execute is exactly
// one request to a peer, and a source seen before is parsed by neither
// node.
func TestForwardIsOneRoundTripAndOneParse(t *testing.T) {
	log := &peerLog{}
	fleet, err := NewLocal(3, testBase(), log.wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	home := fleet.Names[1]
	src := sourceHomedOn(t, fleet, home)
	parses := func(node string) int64 { return svcOf(t, fleet, node).Metrics().Counter("source_parses") }

	for round := 0; round < 3; round++ {
		entry := otherThan(t, fleet, home)
		before := [2]int64{parses(entry), parses(home)}
		forwardOnce(t, fleet, "/v1/execute", execRequest(src))
		calls := log.take()
		if len(calls) != 1 || calls[0].method != http.MethodPost || calls[0].path != "/v1/execute" || calls[0].from != entry || calls[0].to != home {
			t.Fatalf("round %d: peer round trips = %+v; want the one forwarded POST", round, calls)
		}
		want := int64(0) // a repeated source: the memo on each node answers
		if round == 0 {
			want = 1 // first sight: one derivation per node, reused by the cold compile
		}
		if got := [2]int64{parses(entry) - before[0], parses(home) - before[1]}; got != [2]int64{want, want} {
			t.Fatalf("round %d: parses on entry, home = %v; want %d each", round, got, want)
		}
	}
	if n := svcOf(t, fleet, otherThan(t, fleet, home)).Metrics().Counter("cluster_trace_grafts"); n != 0 {
		t.Fatalf("cluster_trace_grafts = %d with no trace read", n)
	}
}

// TestRoutingKeyIsTheMemoizedKey: the hash a node routes on — first ask
// or memoized — is KeyHash of the freshly derived canonical text, for
// every corpus program.
func TestRoutingKeyIsTheMemoizedKey(t *testing.T) {
	svc := service.New(testBase())
	defer svc.Close()
	checked := 0
	for i, src := range lang.Corpus() {
		nres, err := normalize.Source(src)
		for ask := 0; ask < 2; ask++ {
			k, kerr := svc.SourceKey(src)
			if (err == nil) != (kerr == nil) {
				t.Fatalf("corpus %d ask %d: SourceKey err %v, fresh err %v", i, ask, kerr, err)
			}
			if err != nil {
				continue
			}
			if want := KeyHash(lang.Canonical(nres.Nest)); k.Hash != want {
				t.Fatalf("corpus %d ask %d: routing hash %x, fresh %x", i, ask, k.Hash, want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d keys compared", checked)
	}
}

// TestForwardedBodyIsTheHomesBody: what the client reads is what the
// home node wrote, byte for byte — member order included — except the
// trace_id value, which names the entry node's route trace.
func TestForwardedBodyIsTheHomesBody(t *testing.T) {
	log := &peerLog{}
	fleet, err := NewLocal(3, testBase(), log.wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	home := fleet.Names[1]
	src := sourceHomedOn(t, fleet, home)

	for _, tc := range []struct {
		path  string
		req   any
		first string
	}{
		{"/v1/compile", execRequest(src).CompileRequest, `{"plan":`},
		{"/v1/execute", execRequest(src), `{"strategy":`},
	} {
		entry, res, body := forwardOnce(t, fleet, tc.path, tc.req)
		calls := log.take()
		if len(calls) != 1 {
			t.Fatalf("%s: %d peer calls", tc.path, len(calls))
		}
		homeBody := calls[0].body
		localID := res.Header.Get(service.HeaderTraceID)
		if localID == "" || svcOf(t, fleet, entry).Traces().Get(localID) == nil {
			t.Fatalf("%s: trace %q does not resolve on the entry node", tc.path, localID)
		}
		if svcOf(t, fleet, home).Traces().Get(localID) != nil {
			t.Fatalf("%s: the client was handed the home node's trace ID", tc.path)
		}
		if !bytes.HasPrefix(body, []byte(tc.first)) {
			t.Fatalf("%s: body does not start with %s (struct order): %.60s", tc.path, tc.first, body)
		}
		if !bytes.Contains(body, []byte(`"trace_id":"`+localID+`"`)) {
			t.Fatalf("%s: body's trace_id is not the header's %s", tc.path, localID)
		}
		var remoteID string
		for _, sp := range svcOf(t, fleet, entry).Traces().Get(localID).Spans() {
			for _, a := range sp.Attrs {
				if sp.Name == "forward" && a.Key == "remote_trace" {
					remoteID = a.Str
				}
			}
		}
		if remoteID == "" || remoteID == localID {
			t.Fatalf("%s: forward span's remote_trace = %q", tc.path, remoteID)
		}
		if want := bytes.Replace(homeBody, []byte(remoteID), []byte(localID), 1); !bytes.Equal(body, want) {
			t.Fatalf("%s: forwarded body differs from the home's beyond trace_id:\n got %s\nwant %s", tc.path, body, want)
		}
	}
}

func TestSpliceTraceID(t *testing.T) {
	for _, tc := range []struct{ body, from, to, want string }{
		{`{"a":1,"trace_id":"t1-000001","z":2}` + "\n", "t1-000001", "t2-1234567", `{"a":1,"trace_id":"t2-1234567","z":2}` + "\n"},
		// The same bytes inside a string are escaped there, so only the member matches.
		{`{"s":"\"trace_id\":\"t1\"","trace_id":"t1"}`, "t1", "t9", `{"s":"\"trace_id\":\"t1\"","trace_id":"t9"}`},
		{`{"error":"no"}`, "t1", "t9", `{"error":"no"}`},
		{`{"trace_id":"t1"}`, "", "t9", `{"trace_id":"t1"}`},
	} {
		if got := string(spliceTraceID([]byte(tc.body), tc.from, tc.to)); got != tc.want {
			t.Errorf("splice(%s, %q→%q) = %s, want %s", tc.body, tc.from, tc.to, got, tc.want)
		}
	}
}

// TestTraceJoinIsOnce: 16 concurrent readers of a forwarded request's
// trace all see the remote subtree; the peer is asked for it once.
func TestTraceJoinIsOnce(t *testing.T) {
	log := &peerLog{}
	fleet, err := NewLocal(3, testBase(), log.wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	home := fleet.Names[1]
	entry, res, _ := forwardOnce(t, fleet, "/v1/execute", execRequest(sourceHomedOn(t, fleet, home)))
	id := res.Header.Get(service.HeaderTraceID)
	log.take()

	trees := make([]string, 16)
	var wg sync.WaitGroup
	for g := range trees {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fleet.Client().Get("http://" + entry + "/v1/trace/" + id + "?format=tree")
			if err != nil {
				t.Error(err)
				return
			}
			defer res.Body.Close()
			body, _ := io.ReadAll(res.Body)
			trees[g] = string(body)
		}()
	}
	wg.Wait()
	for g, tree := range trees {
		if tree != trees[0] {
			t.Fatalf("reader %d saw a different tree:\n%s\nvs\n%s", g, tree, trees[0])
		}
	}
	for _, want := range []string{"route", "forward", "remote_parent", "parse", "exec_run"} {
		if !strings.Contains(trees[0], want) {
			t.Fatalf("joined tree lacks %q:\n%s", want, trees[0])
		}
	}
	if n := strings.Count(trees[0], "exec_run"); n != 1 {
		t.Fatalf("the remote subtree was grafted %d times:\n%s", n, trees[0])
	}
	calls := log.take()
	if len(calls) != 1 || calls[0].method != http.MethodGet || calls[0].to != home || !strings.HasPrefix(calls[0].path, "/v1/trace/") {
		t.Fatalf("peer calls for 16 reads = %+v; want one trace fetch from the home", calls)
	}
	m := svcOf(t, fleet, entry).Metrics()
	if g, e := m.Counter("cluster_trace_grafts"), m.Counter("cluster_trace_graft_errors"); g != 1 || e != 0 {
		t.Fatalf("cluster_trace_grafts = %d, cluster_trace_graft_errors = %d; want 1, 0", g, e)
	}
}

// TestTraceJoinDegrades: when the remote half cannot be had — the peer
// is down, or its ring has dropped the trace — the entry node still
// answers 200 with its own route/forward spans, the forward span saying
// what is missing and why; the verdict is final, so later reads neither
// ask again nor repeat the mark.
func TestTraceJoinDegrades(t *testing.T) {
	for _, tc := range []struct {
		name   string
		base   service.Config
		breakf func(t *testing.T, fleet *Local, home string)
		reason string
	}{
		{"peer down", testBase(), func(t *testing.T, fleet *Local, home string) {
			fleet.Transport.SetFail(func(host string) error {
				if host == home {
					return io.ErrUnexpectedEOF
				}
				return nil
			})
		}, "unexpected EOF"},
		{"remote trace evicted", func() service.Config { c := testBase(); c.TraceRing = 1; return c }(),
			func(t *testing.T, fleet *Local, home string) {
				// One more request on the home pushes the forwarded one's
				// trace out of its one-slot ring.
				res, body := postJSON(t, fleet.Client(), "http://"+home+"/v1/compile", execRequest(sourceHomedOn(t, fleet, home)).CompileRequest)
				if res.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", res.StatusCode, body)
				}
			}, "status 404"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &peerLog{}
			fleet, err := NewLocal(3, tc.base, log.wrap())
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			home := fleet.Names[1]
			entry, res, _ := forwardOnce(t, fleet, "/v1/execute", execRequest(sourceHomedOn(t, fleet, home)))
			id := res.Header.Get(service.HeaderTraceID)
			tc.breakf(t, fleet, home)
			log.take()

			for read := 0; read < 2; read++ {
				status, tree := getTrace(t, fleet, entry, id, "?format=tree")
				if status != http.StatusOK {
					t.Fatalf("read %d: status %d: %s", read, status, tree)
				}
				for _, want := range []string{"route", "forward", "peer=" + home, "remote=unavailable", "reason=", tc.reason} {
					if !strings.Contains(tree, want) {
						t.Fatalf("read %d: degraded tree lacks %q:\n%s", read, want, tree)
					}
				}
				if strings.Count(tree, "remote=unavailable") != 1 || strings.Contains(tree, "exec_run") {
					t.Fatalf("read %d: degraded tree is wrong:\n%s", read, tree)
				}
			}
			if status, body := getTrace(t, fleet, entry, id, ""); status != http.StatusOK || !strings.Contains(body, `"unavailable"`) {
				t.Fatalf("JSON export: status %d: %s", status, body)
			}
			if calls := log.take(); len(calls) != 1 {
				t.Fatalf("%d fetch attempts over three reads; want 1", len(calls))
			}
			m := svcOf(t, fleet, entry).Metrics()
			if g, e := m.Counter("cluster_trace_grafts"), m.Counter("cluster_trace_graft_errors"); g != 0 || e != 1 {
				t.Fatalf("cluster_trace_grafts = %d, cluster_trace_graft_errors = %d; want 0, 1", g, e)
			}
		})
	}
}

// TestTraceJoinRunsUnderTheReadersContext: the fetch belongs to the
// reader — one who has hung up fetches nothing and decides nothing, and
// the next reader gets the whole tree.
func TestTraceJoinRunsUnderTheReadersContext(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	home := fleet.Names[1]
	entry, res, _ := forwardOnce(t, fleet, "/v1/execute", execRequest(sourceHomedOn(t, fleet, home)))
	id := res.Header.Get(service.HeaderTraceID)
	fleet.Transport.SetDelay(func(host string) time.Duration {
		if host == home {
			return 10 * time.Second
		}
		return 0
	})

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	fleet.Node(entry).joinRemote(gone, svcOf(t, fleet, entry).Traces().Get(id))
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("a canceled reader's fetch ran for %v", waited)
	}

	fleet.Transport.SetDelay(nil)
	if _, tree := getTrace(t, fleet, entry, id, "?format=tree"); !strings.Contains(tree, "exec_run") || strings.Contains(tree, "remote=unavailable") {
		t.Fatalf("the reader after a canceled one did not get the joined tree:\n%s", tree)
	}
}

// TestHedgedRequestJoinsOnlyTheWinner: the hedge that answered is the
// subtree in the tree; the canceled primary is never asked for one.
func TestHedgedRequestJoinsOnlyTheWinner(t *testing.T) {
	log := &peerLog{}
	fleet, err := NewLocal(3, testBase(), WithReplicas(3), WithHedgeAfter(5*time.Millisecond), log.wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	home := fleet.Names[1]
	entry := otherThan(t, fleet, home)
	third := otherThan(t, fleet, home, entry)
	fleet.Transport.SetDelay(func(host string) time.Duration {
		if host == home {
			return 10 * time.Second // never wins; canceled when the hedge answers
		}
		return 0
	})

	res, body := postJSON(t, fleet.Client(), "http://"+entry+"/v1/execute", execRequest(sourceHomedOn(t, fleet, home)))
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Commfree-Served-By") != third {
		t.Fatalf("status %d served by %q: %s", res.StatusCode, res.Header.Get("X-Commfree-Served-By"), body)
	}
	status, tree := getTrace(t, fleet, entry, res.Header.Get(service.HeaderTraceID), "?format=tree")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, tree)
	}
	for _, want := range []string{"forward", "hedge", "peer=" + third, "exec_run"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("hedged tree lacks %q:\n%s", want, tree)
		}
	}
	if n := strings.Count(tree, "exec_run"); n != 1 {
		t.Fatalf("%d remote subtrees joined:\n%s", n, tree)
	}
	fetches := 0
	for _, c := range log.take() {
		if c.method != http.MethodGet {
			continue // the canceled primary POST may be logged this late
		}
		fetches++
		if c.to != third {
			t.Fatalf("trace read asked %s for %s; only the winner %s may be fetched", c.to, c.path, third)
		}
	}
	if fetches != 1 {
		t.Fatalf("%d trace fetches for one read", fetches)
	}
}

// BenchmarkForwardHop is one warm forwarded execute over real loopback
// listeners: the client posts to a node that is not the plan's home.
// B/op and allocs/op cover both nodes, the client and net/http.
func BenchmarkForwardHop(b *testing.B) {
	const nodes = 2
	var lns []net.Listener
	var peers []Peer
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns = append(lns, ln)
		peers = append(peers, Peer{Name: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()})
	}
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	var ring *Ring
	for i, ln := range lns {
		svc := service.New(testBase())
		defer svc.Close()
		node, err := NewNode(svc, Config{Self: peers[i].Name, Peers: peers, Transport: transport, LoadBound: -1})
		if err != nil {
			b.Fatal(err)
		}
		ring = node.Ring()
		srv := &http.Server{Handler: node.Handler()}
		go func(ln net.Listener) { _ = srv.Serve(ln) }(ln)
		defer srv.Close()
	}

	src := "for i = 1 to 8\n for j = 1 to 8\n  A[i, j] = A[i-1, j] + 1\n end\nend"
	nest, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	home, _ := ring.Owner(KeyHash(lang.Canonical(nest)))
	entry := peers[0]
	if entry.Name == home {
		entry = peers[1]
	}
	payload, err := json.Marshal(execRequest(src))
	if err != nil {
		b.Fatal(err)
	}
	client := &http.Client{Transport: transport}
	post := func() {
		res, err := client.Post(entry.URL+"/v1/execute", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK || res.Header.Get("X-Commfree-Served-By") != home {
			b.Fatalf("status %d served by %q: %v %s", res.StatusCode, res.Header.Get("X-Commfree-Served-By"), err, body)
		}
	}
	post() // compile the plan on its home, fill both nodes' memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// TestOversizedNestIsRefusedThroughTheFleet: a nest beyond the iteration
// budget is a 422 whichever node is asked — the home refuses it before
// enumerating it, and the forwarding nodes relay that answer.
func TestOversizedNestIsRefusedThroughTheFleet(t *testing.T) {
	log := &peerLog{}
	fleet, err := NewLocal(3, testBase(), log.wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	req := execRequest("for i = 1 to 100000\n for j = 1 to 100000\n  A[i, j] = 1\n end\nend")
	for _, path := range []string{"/v1/compile", "/v1/execute"} {
		for _, entry := range fleet.Names {
			res, body := postJSON(t, fleet.Client(), "http://"+entry+path, req)
			if res.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "budget exhausted") {
				t.Errorf("%s via %s: status %d, body %s; want 422 budget exhausted", path, entry, res.StatusCode, body)
			}
		}
	}
	if calls := log.take(); len(calls) < 4 {
		t.Errorf("%d forwarded requests, want the four that entered off the home", len(calls))
	}
}

// TestOverflowingNestIsRefusedThroughTheFleet: a program whose
// coefficients overflow the dependence analysis is a 422 whichever node
// is asked — the home's worker contains the arithmetic's panic, the
// forwarding nodes relay the answer — and the fleet is whole afterwards:
// every node answers, none has a request in flight, and the next program
// compiles on the node that refused this one.
func TestOverflowingNestIsRefusedThroughTheFleet(t *testing.T) {
	log := &peerLog{}
	fleet, err := NewLocal(3, testBase(), log.wrap())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	req := execRequest("for i = 1 to 4\n  for j = 1 to 4\n    A[3037000500*i + 3037000500*j, 3037000499*i - 3037000501*j] = A[3037000500*i + 3037000500*j - 1, 3037000499*i - 3037000501*j + 1] + 1\n  end\nend\n")
	for _, path := range []string{"/v1/compile", "/v1/execute"} {
		for _, entry := range fleet.Names {
			start := time.Now()
			res, body := postJSON(t, fleet.Client(), "http://"+entry+path, req)
			if res.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "overflow") {
				t.Errorf("%s via %s: status %d, body %s; want 422 naming the overflow", path, entry, res.StatusCode, body)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("%s via %s refused after %v, want < 100ms", path, entry, d)
			}
		}
	}
	if calls := log.take(); len(calls) != 4 {
		t.Errorf("%d forwarded requests, want the four that entered off the home", len(calls))
	}
	for _, name := range fleet.Names {
		res, err := fleet.Client().Get("http://" + name + "/healthz")
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("healthz on %s after the refusals: %v %v", name, res, err)
		}
		res.Body.Close()
		if n := svcOf(t, fleet, name).Metrics().Snapshot().Gauges["in_flight"]; n != 0 {
			t.Errorf("%s has %d requests in flight after the refusals", name, n)
		}
		if res, body := postJSON(t, fleet.Client(), "http://"+name+"/v1/compile", execRequest(sourceHomedOn(t, fleet, name))); res.StatusCode != http.StatusOK {
			t.Errorf("compile on %s after the refusals: status %d (body %s)", name, res.StatusCode, body)
		}
	}
}
