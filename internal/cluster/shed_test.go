package cluster

// Shed-aware failover: a peer that answers 429 is demoted behind its
// replicas for its own Retry-After window, and a forwarded 429/503
// propagates the remote Retry-After hint instead of the fixed "1".

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"commfree/internal/service"
)

// shedHandler always answers 429 with the given Retry-After, counting
// the hits it takes.
type shedHandler struct {
	retryAfter string
	hits       chan string
}

func (h *shedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case h.hits <- r.URL.Path:
	default:
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", h.retryAfter)
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": "shedding"})
}

// TestShedDemotesPeer: after the home node sheds one forward, routing
// demotes it — the next request for the same key goes straight to a
// replica without touching the shedding home again.
func TestShedDemotesPeer(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home := fleet.Names[0]
	src := sourceHomedOn(t, fleet, home)
	entry := otherThan(t, fleet, home)
	client := fleet.Client()

	// Replace the home's handler with an always-429 shedder.
	shed := &shedHandler{retryAfter: "7", hits: make(chan string, 64)}
	fleet.Transport.Register(home, shed)

	req := service.ExecuteRequest{CompileRequest: service.CompileRequest{
		Source: src, Strategy: "non-duplicate", Processors: 4}}

	// First request: forwarded to home, shed, failed over to a replica
	// — the client still gets a result.
	res, body := postJSON(t, client, "http://"+entry+"/v1/execute", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d: %s", res.StatusCode, body)
	}
	if by := res.Header.Get("X-Commfree-Served-By"); by == home {
		t.Fatalf("served by the shedding home %q", by)
	}
	select {
	case <-shed.hits:
	default:
		t.Fatal("home was never tried on the first request")
	}

	// Second request: the home is inside its Retry-After demotion
	// window, so routing must not touch it at all.
	res, body = postJSON(t, client, "http://"+entry+"/v1/execute", req)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("demoted-route status %d: %s", res.StatusCode, body)
	}
	if by := res.Header.Get("X-Commfree-Served-By"); by == home {
		t.Fatalf("demoted home %q still served", by)
	}
	select {
	case p := <-shed.hits:
		t.Fatalf("demoted home was contacted again (%s)", p)
	default:
	}

	if demos := counterOf(t, svcOf(t, fleet, entry), "cluster_shed_demotions"); demos == 0 {
		t.Fatal("cluster_shed_demotions did not count the demotion")
	}

	// The shed must NOT have fed the failure detector: 429 is
	// backpressure, not death.
	if !fleet.Node(entry).Detector().Up(home) {
		t.Fatal("a 429 marked the home down in the failure detector")
	}
}

// TestShedRetryAfterCaptured: a forwarded 429's Retry-After hint is
// parsed off the wire and sizes the demotion window — the plumbing the
// shed-aware ordering runs on.
func TestShedRetryAfterCaptured(t *testing.T) {
	fleet, err := NewLocal(2, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	home, entry := fleet.Names[0], fleet.Names[1]
	shed := &shedHandler{retryAfter: "9", hits: make(chan string, 4)}
	fleet.Transport.Register(home, shed)

	n := fleet.Node(entry)
	res := n.doRequest(context.Background(), home,
		"/v1/execute", []byte(`{}`), "t000000-000001", 0)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", res.status)
	}
	retryAfter := res.retryAfter
	if retryAfter != 9*time.Second {
		t.Fatalf("captured Retry-After %v, want 9s", retryAfter)
	}

	// The captured hint drives the demotion window.
	n.noteShed(home, retryAfter)
	if got := n.demoteShed(time.Now().Add(8*time.Second), []string{home, entry}); got[0] != entry {
		t.Fatalf("home not demoted for its full hint: %v", got)
	}
	if got := n.demoteShed(time.Now().Add(10*time.Second), []string{home, entry}); got[0] != home {
		t.Fatalf("demotion outlived the hint: %v", got)
	}
}

// counterOf reads one counter from a service's metrics snapshot.
func counterOf(t *testing.T, s *service.Service, name string) int64 {
	t.Helper()
	return s.Metrics().Snapshot().Counters[name]
}

// TestNoteShedExpiry: the demotion is temporary — once the Retry-After
// window passes, the peer regains its ring position.
func TestNoteShedExpiry(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	n := fleet.Nodes[0]

	n.noteShed("n1", 2*time.Second)
	now := time.Now()
	got := n.demoteShed(now, []string{"n1", "n2"})
	if len(got) != 2 || got[0] != "n2" || got[1] != "n1" {
		t.Fatalf("demoteShed inside window = %v, want [n2 n1]", got)
	}
	got = n.demoteShed(now.Add(3*time.Second), []string{"n1", "n2"})
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("demoteShed after expiry = %v, want [n1 n2]", got)
	}

	// Bounds: hints are clamped into [1s, 30s].
	n.noteShed("n2", 0)
	if got := n.demoteShed(time.Now().Add(500*time.Millisecond), []string{"n2"}); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("zero hint not clamped up to 1s: %v", got)
	}
	n.noteShed("n2", time.Hour)
	if got := n.demoteShed(time.Now().Add(31*time.Second), []string{"n2", "n0"}); got[0] != "n2" {
		t.Fatalf("hour hint not clamped down to 30s: %v", got)
	}
}
