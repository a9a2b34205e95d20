package service

// End-to-end observability tests: the trace endpoint returns a complete
// span tree for an executed request, the Prometheus view of /v1/metrics
// parses under the text exposition format, HTTP error paths map to
// documented statuses with parseable bodies, and the metrics registry
// survives concurrent scraping while compilations run (-race).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/obs"
)

// TestTraceEndpointCompleteSpanTree executes the paper's L5 matmul cold
// (compile + execute in one request) and asserts GET /v1/trace/{id}
// returns the full nine-stage span tree with per-block child spans.
func TestTraceEndpointCompleteSpanTree(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	srcL5 := lang.Format(loop.L5(4))
	resp, body := postJSON(t, ts.URL+"/v1/execute", execReq(CompileRequest{
		Source: srcL5, Strategy: "duplicate", Processors: 4,
	}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp.StatusCode, body)
	}
	var er ExecuteResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.TraceID == "" {
		t.Fatalf("execute response has no trace_id: %s", body)
	}

	getResp, err := http.Get(ts.URL + "/v1/trace/" + er.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", getResp.StatusCode)
	}
	var export obs.Export
	if err := json.NewDecoder(getResp.Body).Decode(&export); err != nil {
		t.Fatal(err)
	}
	if export.TraceID != er.TraceID || export.Name != "execute" {
		t.Errorf("export identity = %q/%q", export.TraceID, export.Name)
	}

	byName := map[string][]obs.Span{}
	for _, sp := range export.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if sp.DurNS < 0 {
			t.Errorf("span %s still open", sp.Name)
		}
	}
	for _, stage := range []string{
		"parse", "deps", "redundant", "partition",
		"transform", "assign", "exec_compile", "exec_run", "exec_validate",
	} {
		if len(byName[stage]) == 0 {
			t.Errorf("stage span %q missing from trace", stage)
		}
	}
	blocks := byName["block"]
	if len(blocks) == 0 {
		t.Fatal("no per-block spans in trace")
	}
	// Block spans hang under exec_run and carry the scheduler context.
	runID := byName["exec_run"][0].ID
	for _, b := range blocks {
		if b.Parent != runID {
			t.Errorf("block span parent = %d, want exec_run %d", b.Parent, runID)
		}
		attrs := map[string]int64{}
		for _, a := range b.Attrs {
			attrs[a.Key] = a.Int
		}
		for _, key := range []string{"worker", "node", "block", "iterations", "words"} {
			if _, ok := attrs[key]; !ok {
				t.Errorf("block span missing attr %q: %+v", key, b.Attrs)
			}
		}
		if attrs["iterations"] <= 0 {
			t.Errorf("block span iterations = %d", attrs["iterations"])
		}
	}
	if len(byName["distribute"]) == 0 {
		t.Error("no distribute span under exec_run")
	}

	// The ASCII rendering works too.
	treeResp, err := http.Get(ts.URL + "/v1/trace/" + er.TraceID + "?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(treeResp.Body)
	treeResp.Body.Close()
	if !strings.Contains(string(tree), "exec_run") || !strings.Contains(string(tree), "block") {
		t.Errorf("tree rendering incomplete:\n%s", tree)
	}
}

func TestTraceEndpointNotFoundAndListing(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/trace/t000000-000000")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace → %d, want 404", resp.StatusCode)
	}
	var eb map[string]string
	if err := json.Unmarshal(body, &eb); err != nil || eb["error"] == "" {
		t.Errorf("404 body not a parseable error: %s", body)
	}

	if _, err := s.Compile(context.Background(), CompileRequest{Source: srcL1}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/trace/")
	if err != nil {
		t.Fatal(err)
	}
	var listing []TraceSummary
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) == 0 || listing[0].TraceID == "" || listing[0].Name != "compile" {
		t.Errorf("trace listing = %+v", listing)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[-+]?[0-9.eE+-]+|[-+]?Inf)$`)

// TestPrometheusExposition scrapes /v1/metrics?format=prometheus after
// real traffic and validates the document line by line: every sample
// parses, histogram buckets are cumulative and end at +Inf == count,
// and the core metric families are present.
func TestPrometheusExposition(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Compile(context.Background(), CompileRequest{Source: srcL1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(context.Background(), execReq(CompileRequest{Source: srcL1})); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)

	type series struct {
		buckets []float64 // cumulative counts in le order
		sum     float64
		count   float64
	}
	stages := map[string]*series{}
	stageOf := regexp.MustCompile(`stage="([^"]*)"`)
	leOf := regexp.MustCompile(`le="([^"]*)"`)
	seen := map[string]bool{}
	var lastLE float64
	var lastStage string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line does not parse under text format 0.0.4: %q", line)
		}
		name := m[1]
		seen[name] = true
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if val < 0 {
			t.Errorf("negative sample: %q", line)
		}
		stg := ""
		if sm := stageOf.FindStringSubmatch(m[2]); sm != nil {
			stg = sm[1]
			if stages[stg] == nil {
				stages[stg] = &series{}
			}
		}
		switch name {
		case "commfree_stage_duration_seconds_bucket":
			lm := leOf.FindStringSubmatch(m[2])
			if lm == nil {
				t.Fatalf("bucket without le label: %q", line)
			}
			le := 0.0
			if lm[1] == "+Inf" {
				le = 1e300
			} else if le, err = strconv.ParseFloat(lm[1], 64); err != nil {
				t.Fatalf("unparseable le in %q: %v", line, err)
			}
			sr := stages[stg]
			if n := len(sr.buckets); n > 0 && stg == lastStage {
				if val < sr.buckets[n-1] {
					t.Errorf("bucket counts not cumulative at %q", line)
				}
				if le <= lastLE {
					t.Errorf("le bounds not increasing at %q", line)
				}
			}
			sr.buckets = append(sr.buckets, val)
			lastLE, lastStage = le, stg
		case "commfree_stage_duration_seconds_sum":
			stages[stg].sum = val
		case "commfree_stage_duration_seconds_count":
			stages[stg].count = val
		}
	}

	for _, want := range []string{
		"commfree_uptime_seconds",
		"commfree_compile_requests_total",
		"commfree_execute_requests_total",
		"commfree_cache_hits_total",
		"commfree_queue_depth",
		"commfree_stage_duration_seconds_bucket",
	} {
		if !seen[want] {
			t.Errorf("metric family %q missing", want)
		}
	}
	for _, stage := range []string{"parse", "partition", "selection", "codegen", "exec_run"} {
		sr := stages[stage]
		if sr == nil || sr.count == 0 {
			t.Errorf("stage %q missing from prometheus view", stage)
			continue
		}
		if len(sr.buckets) != len(bucketBounds)+1 {
			t.Errorf("stage %q has %d buckets, want %d", stage, len(sr.buckets), len(bucketBounds)+1)
		}
		if sr.buckets[len(sr.buckets)-1] != sr.count {
			t.Errorf("stage %q +Inf bucket %v != count %v", stage, sr.buckets[len(sr.buckets)-1], sr.count)
		}
	}
}

// TestHTTPErrorPathsTable pins every documented error path to its
// status code and asserts the body is a parseable {"error": ...}.
func TestHTTPErrorPathsTable(t *testing.T) {
	srcL5 := lang.Format(loop.L5(6))
	cases := []struct {
		name   string
		cfg    Config
		close  bool   // drain the service before the request
		path   string // default /v1/compile
		raw    string // raw body (bypasses JSON marshalling) when set
		req    CompileRequest
		status int
	}{
		{
			name:   "malformed JSON",
			raw:    `{"source": "for i = 1 to 2`,
			status: http.StatusBadRequest,
		},
		{
			name:   "unknown field",
			raw:    `{"source": "x", "bogus_field": 1}`,
			status: http.StatusBadRequest,
		},
		{
			name:   "unknown strategy",
			req:    CompileRequest{Source: srcL1, Strategy: "mostly-duplicate"},
			status: http.StatusBadRequest,
		},
		{
			name:   "oversized program",
			cfg:    Config{MaxSourceBytes: 16},
			req:    CompileRequest{Source: srcL1},
			status: http.StatusBadRequest,
		},
		{
			name:   "processors out of range",
			req:    CompileRequest{Source: srcL1, Processors: 1 << 20},
			status: http.StatusBadRequest,
		},
		{
			name:   "budget exhaustion",
			cfg:    Config{MaxIterations: 3},
			path:   "/v1/execute",
			req:    CompileRequest{Source: srcL5, Strategy: "duplicate"},
			status: http.StatusUnprocessableEntity,
		},
		{
			name:   "deadline exceeded",
			cfg:    Config{RequestTimeout: time.Nanosecond},
			req:    CompileRequest{Source: srcL5},
			status: http.StatusGatewayTimeout,
		},
		{
			name:   "shutdown during request",
			close:  true,
			req:    CompileRequest{Source: srcL1},
			status: http.StatusServiceUnavailable,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			if tc.close {
				s.Close()
			} else {
				defer s.Close()
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			path := tc.path
			if path == "" {
				path = "/v1/compile"
			}
			var resp *http.Response
			var body []byte
			if tc.raw != "" {
				r, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				body, _ = io.ReadAll(r.Body)
				r.Body.Close()
				resp = r
			} else {
				resp, body = postJSON(t, ts.URL+path, tc.req)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, body)
			}
			var eb map[string]string
			if err := json.Unmarshal(body, &eb); err != nil || eb["error"] == "" {
				t.Errorf("error body not parseable {\"error\": ...}: %s", body)
			}
		})
	}
}

// TestConcurrentMetricsScrape hammers every read surface of the
// registry (JSON document, Prometheus rendering, trace ring) from 16
// goroutines while compilations and executions run — the histogram/
// ring race test; run under -race in CI.
func TestConcurrentMetricsScrape(t *testing.T) {
	// Depth-only admission: with sub-millisecond compiles some of the
	// burst's executions arrive after the first completions, and on a
	// box the 16 spinning scrapers saturate the first measured drain gap
	// can be tens of milliseconds — the SLO controller would then
	// (rightly) shed them, which is not what this test is about.
	s := newTestService(t, Config{Workers: 4, Admission: "queue"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch g % 4 {
				case 0:
					_ = s.MetricsDocument()
				case 1:
					s.WritePrometheus(io.Discard)
				case 2:
					resp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
					if err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				case 3:
					for _, trc := range s.Traces().Recent(4) {
						_ = trc.Tree()
					}
				}
			}
		}(g)
	}

	var reqs sync.WaitGroup
	for i := 0; i < 12; i++ {
		reqs.Add(1)
		go func(i int) {
			defer reqs.Done()
			src := fmt.Sprintf("for i = 1 to %d\n  for j = 1 to 3\n    S1: A[i, j] = A[i, j] + 1\n  end\nend\n", 2+i%4)
			if i%2 == 0 {
				if _, err := s.Compile(context.Background(), CompileRequest{Source: src}); err != nil {
					t.Errorf("compile %d: %v", i, err)
				}
			} else {
				if _, err := s.Execute(context.Background(), execReq(CompileRequest{Source: src, Strategy: "duplicate"})); err != nil {
					t.Errorf("execute %d: %v", i, err)
				}
			}
		}(i)
	}
	reqs.Wait()
	close(done)
	wg.Wait()

	doc := s.MetricsDocument()
	if doc.Counters["compile_requests"] != 6 || doc.Counters["execute_requests"] != 6 {
		t.Errorf("request counters = %v", doc.Counters)
	}
}
