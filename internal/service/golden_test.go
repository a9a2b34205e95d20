package service

// Golden tests pinning the two human-facing text renderings served
// over HTTP: the ASCII span tree (GET /v1/trace/{id}?format=tree) and
// the Prometheus exposition (GET /v1/metrics?format=prometheus).
// Regenerate the fixtures with UPDATE_GOLDEN=1 go test ./internal/service
// -run Golden and review the diff like any other code change.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"commfree/internal/obs"
)

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// deterministicTrace builds an execute-shaped span tree with explicit
// offsets and durations (no clock reads), including a chaos-annotated
// exec_run and a block fan-out past the tree's 16-child summarization
// cap.
func deterministicTrace() *obs.Trace {
	trc := obs.New("execute")
	ms := int64(time.Millisecond)
	spans := []obs.Span{
		{Parent: 0, Name: "parse", StartNS: 0, DurNS: ms / 8,
			Attrs: []obs.Attr{{Key: "bytes", Int: 96}}},
		{Parent: 0, Name: "exec_compile", StartNS: ms / 4, DurNS: 3 * ms / 2,
			Attrs: []obs.Attr{
				{Key: "fallback", Str: "oracle"},
				{Key: "reason", Str: "exec: array A footprint [4096 4096] exceeds 16777216 dense cells"},
			}},
		{Parent: 0, Name: "exec_run", StartNS: 2 * ms, DurNS: 5 * ms,
			Attrs: []obs.Attr{
				{Key: "engine", Str: "oracle"},
				{Key: "chaos_seed", Int: 7},
				{Key: "attempt", Int: 0},
				{Key: "chaos_faults", Int: 3},
				{Key: "chaos_block_retries", Int: 3},
			}},
	}
	trc.Bulk(spans) // IDs 1..3 in order; exec_run is span 3
	const execRun = obs.SpanID(3)
	children := []obs.Span{
		{Parent: execRun, Name: "distribute", StartNS: 2 * ms, DurNS: ms,
			Attrs: []obs.Attr{{Key: "words", Int: 400}}},
	}
	for i := 0; i < 18; i++ {
		children = append(children, obs.Span{
			Parent: execRun, Name: "block",
			StartNS: 3*ms + int64(i)*ms/16, DurNS: ms / 4,
			Attrs: []obs.Attr{
				{Key: "worker", Int: int64(i % 4)},
				{Key: "node", Int: int64(i % 4)},
				{Key: "block", Int: int64(i)},
				{Key: "iters", Int: 2},
			},
		})
	}
	children = append(children, obs.Span{
		Parent: 0, Name: "exec_validate", StartNS: 71 * ms / 10, DurNS: ms / 4,
		Attrs: []obs.Attr{{Key: "elements", Int: 32}, {Key: "mismatches", Int: 0}},
	})
	trc.Bulk(children)
	return trc
}

var traceIDRe = regexp.MustCompile(`\bt[0-9a-f]{6}-[0-9]{6}\b`)

func TestGoldenTraceTree(t *testing.T) {
	s := newTestService(t, Config{})
	trc := deterministicTrace()
	s.Traces().Add(trc)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/v1/trace/"+trc.ID()+"?format=tree")
	normalized := traceIDRe.ReplaceAll(body, []byte("TRACE_ID"))
	goldenCompare(t, "trace_tree.golden", normalized)
}

var uptimeRe = regexp.MustCompile(`(?m)^commfree_uptime_seconds .*$`)

func TestGoldenPrometheusExposition(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 4})
	m := s.Metrics()
	m.Inc("compile_requests", 3)
	m.Inc("execute_requests", 2)
	m.Inc("errors", 1)
	m.Inc("chaos_faults", 5)
	m.Observe("parse", 100*time.Microsecond)
	m.Observe("parse", 250*time.Microsecond)
	m.Observe("exec_run", 3*time.Millisecond)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/v1/metrics?format=prometheus")
	normalized := uptimeRe.ReplaceAll(body, []byte("commfree_uptime_seconds UPTIME"))
	goldenCompare(t, "metrics_prom.golden", normalized)
}

// TestGoldenCacheShardMetrics pins the per-shard cache series. The
// cache is driven directly with fixed keys (no compiles), so the
// exposition carries no wall-time-dependent stage histograms and the
// shard attribution — a pure function of the key hashes — renders
// identically on every run.
func TestGoldenCacheShardMetrics(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 4})
	for i := 0; i < 12; i++ {
		s.cache.get(fmt.Sprintf("k%02d", i)) // 12 misses spread over the shards
	}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("k%02d", i)
		s.cache.add(&cacheEntry{key: key, bytes: 100})
		s.cache.get(key) // 6 hits on resident keys
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/v1/metrics?format=prometheus")
	normalized := uptimeRe.ReplaceAll(body, []byte("commfree_uptime_seconds UPTIME"))
	goldenCompare(t, "metrics_shards_prom.golden", normalized)
}
