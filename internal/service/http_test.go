package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPExecuteValidatesNaN: a nest that computes 0/0 computes NaN on
// the kernel and in the reference alike, so the served answer is
// validated with no mismatch.
func TestHTTPExecuteValidatesNaN(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/execute", CompileRequest{Source: "for i = 0 to 7\n  A[i] = 0/0\nend\n", Processors: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp.StatusCode, body)
	}
	var er ExecuteResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Validated || er.Mismatches != 0 || er.Elements != 8 {
		t.Errorf("validated=%v mismatches=%d elements=%d, want true, 0 of 8", er.Validated, er.Mismatches, er.Elements)
	}
}

func TestHTTPCompileAndExecute(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: srcL1, Processors: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d: %s", resp.StatusCode, body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Plan == nil || cr.Plan.Partition.NumBlocks == 0 {
		t.Fatalf("bad plan: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/execute", execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status %d: %s", resp.StatusCode, body)
	}
	var er ExecuteResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Validated || er.InterNodeMessages != 0 {
		t.Fatalf("execution not communication-free/valid: %s", body)
	}
	if !er.Cached {
		t.Error("execute did not reuse the compile's cached plan")
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestService(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: "for i = 1 to\n"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error → %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: srcL1, Strategy: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad strategy → %d, want 400", resp.StatusCode)
	}
	r, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON → %d, want 400", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET compile → %d, want 405", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz → %d", r.StatusCode)
	}
}

// TestHTTP64ConcurrentCompiles is the acceptance load test: 64
// concurrent clients hammer /v1/compile with the paper's loops L1–L5 in
// assorted α-equivalent spellings; every request must succeed, with the
// canonicalizing cache collapsing the distinct spellings to five
// compilations (run under -race).
func TestHTTP64ConcurrentCompiles(t *testing.T) {
	s := newTestService(t, Config{Workers: 8, QueueDepth: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sources := []string{
		paperSources()["L1"], paperSources()["L2"], paperSources()["L3"],
		paperSources()["L4"], paperSources()["L5"],
		srcL1, srcL1Renamed, // α-equivalent spellings of L1
	}
	const clients = 64
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				src := sources[(c+k)%len(sources)]
				data, _ := json.Marshal(CompileRequest{Source: src, Processors: 16})
				resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
					continue
				}
				var cr CompileResponse
				if err := json.Unmarshal(body, &cr); err != nil || cr.Plan == nil {
					errs <- fmt.Errorf("client %d: bad body: %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The canonicalizing cache plus the single-flight group must
	// collapse the 7 spellings to 5 real compilations (the selection
	// stage runs once per compilation), no matter how the 192 requests
	// interleave.
	st := s.CacheStats()
	if total := st.Hits + st.Misses; total < clients*perClient {
		t.Errorf("cache saw %d lookups, want ≥ %d", total, clients*perClient)
	}
	compiles := s.MetricsDocument().Stages["selection"].Count
	if compiles > 10 {
		t.Errorf("pipeline ran %d times for 5 canonical programs", compiles)
	}
	t.Logf("load: %d requests, %d cache hits, %d compilations", clients*perClient, st.Hits, compiles)
}
