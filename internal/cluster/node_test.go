package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"commfree/internal/lang"
	"commfree/internal/service"
)

func testBase() service.Config {
	return service.Config{Workers: 2, QueueDepth: 64}
}

// sourceHomedOn synthesizes a valid nest whose routing key is homed on
// the wanted node (varying a constant varies the canonical hash).
func sourceHomedOn(t *testing.T, fleet *Local, want string) string {
	t.Helper()
	for k := 0; k < 512; k++ {
		src := fmt.Sprintf("for i = 1 to 4\n A[i] = %d\nend", k)
		nest, err := lang.Parse(src)
		if err != nil {
			continue
		}
		owner, ok := fleet.Nodes[0].Ring().Owner(KeyHash(lang.Canonical(nest)))
		if ok && owner == want {
			return src
		}
	}
	t.Fatalf("no synthesized source homed on %s", want)
	return ""
}

// otherThan returns a fleet node name different from all excluded ones.
func otherThan(t *testing.T, fleet *Local, excluded ...string) string {
	t.Helper()
	for _, n := range fleet.Names {
		ok := true
		for _, e := range excluded {
			if n == e {
				ok = false
			}
		}
		if ok {
			return n
		}
	}
	t.Fatal("fleet too small")
	return ""
}

func postJSON(t *testing.T, client *http.Client, url string, req any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, body
}

func svcOf(t *testing.T, fleet *Local, name string) *service.Service {
	t.Helper()
	for i, n := range fleet.Names {
		if n == name {
			return fleet.Services[i]
		}
	}
	t.Fatalf("no service for %s", name)
	return nil
}

// TestForwardToHome: a request entering a non-home node is forwarded to
// the home, answers with the home's document, names the server in
// X-Commfree-Served-By, and rewrites trace_id to the entry node's route
// trace.
func TestForwardToHome(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home := fleet.Names[0]
	src := sourceHomedOn(t, fleet, home)
	entry := otherThan(t, fleet, home)
	client := fleet.Client()

	res, body := postJSON(t, client, "http://"+entry+"/v1/compile",
		service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	if got := res.Header.Get("X-Commfree-Served-By"); got != home {
		t.Fatalf("served by %q; want home %q", got, home)
	}
	var out service.CompileResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan == nil {
		t.Fatal("forwarded response has no plan")
	}
	if out.TraceID == "" {
		t.Fatal("forwarded response lost its trace_id")
	}
	// The rewritten trace_id must resolve on the ENTRY node.
	if trc := svcOf(t, fleet, entry).Traces().Get(out.TraceID); trc == nil {
		t.Fatalf("trace %s not found on entry node %s", out.TraceID, entry)
	}
	if n := svcOf(t, fleet, entry).Metrics().Counter("cluster_forwards"); n < 1 {
		t.Fatalf("cluster_forwards = %d on entry; want ≥ 1", n)
	}
	if n := svcOf(t, fleet, home).Metrics().Counter("cluster_forwarded_in"); n < 1 {
		t.Fatalf("cluster_forwarded_in = %d on home; want ≥ 1", n)
	}
}

// TestHedgedRequest: a slow home trips the latency budget; the hedge to
// the next replica wins and the client still gets a 200.
func TestHedgedRequest(t *testing.T) {
	fleet, err := NewLocal(3, testBase(),
		WithReplicas(3),
		WithHedgeAfter(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home := fleet.Names[1]
	src := sourceHomedOn(t, fleet, home)
	entry := otherThan(t, fleet, home)
	third := otherThan(t, fleet, home, entry)
	// The home's delay only needs to exceed the 5ms hedge budget, but a
	// near-miss value lets a heavily-loaded scheduler finish the delayed
	// home before the hedge on a bad day; make the home effectively
	// never win. The losing attempt is context-canceled the moment the
	// hedge responds, so the test does not wait this out.
	fleet.Transport.SetDelay(func(host string) time.Duration {
		if host == home {
			return 10 * time.Second
		}
		return 0
	})

	res, body := postJSON(t, fleet.Client(), "http://"+entry+"/v1/compile",
		service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	if got := res.Header.Get("X-Commfree-Served-By"); got != third {
		t.Fatalf("served by %q; want the hedge target %q", got, third)
	}
	m := svcOf(t, fleet, entry).Metrics()
	if n := m.Counter("cluster_hedges"); n < 1 {
		t.Fatalf("cluster_hedges = %d; want ≥ 1", n)
	}
	if n := m.Counter("cluster_hedges_won"); n < 1 {
		t.Fatalf("cluster_hedges_won = %d; want ≥ 1", n)
	}
}

// TestDrainReroute is the cluster-aware drain contract: a draining home
// answers 503 + Retry-After BEFORE any queueing, the forwarding peer
// treats that as retryable and re-routes, and the client still gets a
// 200 — from anyone but the draining node.
func TestDrainReroute(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home := fleet.Names[2]
	src := sourceHomedOn(t, fleet, home)
	entry := otherThan(t, fleet, home)
	svcOf(t, fleet, home).BeginDrain()

	res, body := postJSON(t, fleet.Client(), "http://"+entry+"/v1/compile",
		service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d through draining home: %s", res.StatusCode, body)
	}
	if got := res.Header.Get("X-Commfree-Served-By"); got == home {
		t.Fatalf("request served by the draining node %s", home)
	}
	if n := svcOf(t, fleet, entry).Metrics().Counter("cluster_forward_errors"); n < 1 {
		t.Fatalf("cluster_forward_errors = %d on entry; want ≥ 1 (the 503)", n)
	}

	// Direct hit on the draining node: immediate 503 + Retry-After.
	direct, _ := postJSON(t, fleet.Client(), "http://"+home+"/v1/compile",
		service.CompileRequest{Source: src, Processors: 4})
	if direct.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining node answered %d; want 503", direct.StatusCode)
	}
	if direct.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 lacks Retry-After")
	}
	if n := svcOf(t, fleet, home).Metrics().Counter("cluster_drain_rejects"); n < 2 {
		t.Fatalf("cluster_drain_rejects = %d on home; want ≥ 2", n)
	}
}

// TestCrashFailover: a crashed home refuses forwards; every request
// still succeeds via a replica, and after suspectAfter failures the
// fast path marks the home down so later requests skip it entirely.
func TestCrashFailover(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home := fleet.Names[0]
	src := sourceHomedOn(t, fleet, home)
	entry := otherThan(t, fleet, home)
	fleet.Transport.SetFail(func(host string) error {
		if host == home {
			return fmt.Errorf("connection refused (test crash)")
		}
		return nil
	})

	for i := 0; i < 4; i++ {
		res, body := postJSON(t, fleet.Client(), "http://"+entry+"/v1/compile",
			service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4})
		if res.StatusCode != http.StatusOK {
			t.Fatalf("request %d lost: status %d: %s", i, res.StatusCode, body)
		}
		if got := res.Header.Get("X-Commfree-Served-By"); got == home {
			t.Fatalf("request %d served by the crashed home", i)
		}
	}
	node := fleet.Node(entry)
	if node.Detector().Up(home) {
		t.Fatalf("home %s still up on %s after repeated forward failures", home, entry)
	}
	m := svcOf(t, fleet, entry).Metrics()
	if errs := m.Counter("cluster_forward_errors"); errs < 3 {
		t.Fatalf("cluster_forward_errors = %d; want ≥ 3 (suspectAfter)", errs)
	}
	if m.Counter("cluster_rebalances") < 1 {
		t.Fatal("down transition did not trigger a rebalance")
	}
}

// TestTraceGraft: the entry node's route trace contains the forward
// span AND the grafted remote span tree, so one trace ID shows the
// whole cross-node request.
func TestTraceGraft(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home := fleet.Names[1]
	src := sourceHomedOn(t, fleet, home)
	entry := otherThan(t, fleet, home)
	client := fleet.Client()

	res, body := postJSON(t, client, "http://"+entry+"/v1/execute",
		service.ExecuteRequest{CompileRequest: service.CompileRequest{
			Source: src, Strategy: "non-duplicate", Processors: 4,
		}})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var out service.ExecuteResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" {
		t.Fatal("no trace_id in forwarded execute response")
	}

	treeRes, err := client.Get("http://" + entry + "/v1/trace/" + out.TraceID + "?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	defer treeRes.Body.Close()
	treeBody, _ := io.ReadAll(treeRes.Body)
	if treeRes.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch on entry: status %d: %s", treeRes.StatusCode, treeBody)
	}
	tree := string(treeBody)
	for _, want := range []string{"route", "forward", "exec_run"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("entry trace tree lacks %q span:\n%s", want, tree)
		}
	}
	if n := svcOf(t, fleet, entry).Metrics().Counter("cluster_trace_grafts"); n < 1 {
		t.Fatalf("cluster_trace_grafts = %d; want ≥ 1", n)
	}
}

// TestRouteWhileRebalanceRace hammers the fleet from 16 goroutines
// while membership flips underneath — run under -race. Every request
// must still succeed (a routed request is never lost, whatever the
// ring looked like mid-flight).
func TestRouteWhileRebalanceRace(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	var srcs []string
	for k := 0; k < 4; k++ {
		srcs = append(srcs, fmt.Sprintf("for i = 1 to 4\n A[i] = %d\nend", k))
	}
	subsets := [][]string{
		{"n0", "n1", "n2"},
		{"n0", "n2"},
		{"n1", "n2"},
		{"n0", "n1"},
	}

	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range fleet.Nodes {
				n.rebalance(subsets[i%len(subsets)])
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fleet.Client()
			for i := 0; i < 20; i++ {
				req := service.CompileRequest{Source: srcs[i%len(srcs)], Strategy: "non-duplicate", Processors: 4}
				payload, _ := json.Marshal(req)
				res, err := client.Post(fleet.URL((g+i)%3)+"/v1/compile", "application/json", bytes.NewReader(payload))
				if err != nil {
					errc <- fmt.Errorf("goroutine %d request %d: %w", g, i, err)
					return
				}
				body, _ := io.ReadAll(res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d request %d: status %d: %s", g, i, res.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flipper.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
