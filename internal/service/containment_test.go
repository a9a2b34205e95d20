package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"commfree/internal/exec"
	"commfree/internal/intlin"
	"commfree/internal/obs"
	"commfree/internal/store"
)

// overflowNest is well-formed, 16 iterations, and its reference matrix
// overflows int64 in the dependence analysis' row reduction — on a pool
// worker, past every bound on the request itself.
const overflowNest = "for i = 1 to 4\n  for j = 1 to 4\n    A[3037000500*i + 3037000500*j, 3037000499*i - 3037000501*j] = A[3037000500*i + 3037000500*j - 1, 3037000499*i - 3037000501*j + 1] + 1\n  end\nend\n"

// TestOverflowingNestIsRefused: the arithmetic's overflow panic is a 422
// on both endpoints, at once, and costs the daemon nothing — it still
// answers, its one worker is free, and the next program compiles.
func TestOverflowingNestIsRefused(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/compile", "/v1/execute"} {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+path, CompileRequest{Source: overflowNest})
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "overflow") {
			t.Fatalf("%s: status %d, body %s; want 422 naming the overflow", path, resp.StatusCode, body)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s refused after %v, want < 100ms", path, d)
		}
	}
	if _, err := s.Compile(context.Background(), CompileRequest{Source: overflowNest}); !errors.Is(err, intlin.ErrOverflow) {
		t.Errorf("err = %v, want intlin.ErrOverflow", err)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusals: %v %v", resp, err)
	}
	if n := s.Metrics().Snapshot().Gauges["in_flight"]; n != 0 {
		t.Errorf("in_flight = %d after the refusals", n)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: srcL1}); resp.StatusCode != http.StatusOK {
		t.Errorf("compile after the refusals: status %d (body %s)", resp.StatusCode, body)
	}
	if got := s.Metrics().Counter("panics"); got != 0 {
		t.Errorf("panics = %d: an overflow is the program's, not a bug", got)
	}
}

// panicStore is a plan store whose Get — which a compile's leader calls on
// its pool worker — announces itself, waits to be released, and panics.
type panicStore struct {
	store.Store
	entered chan struct{}
	release chan struct{}
}

func (p *panicStore) Get(string) (*store.Record, bool, error) {
	p.entered <- struct{}{}
	<-p.release
	panic("injected: the store fell over")
}

var traceInError = regexp.MustCompile(`\(trace (t[0-9a-f]+-[0-9]+)\)`)

// TestWorkerPanicIsContained: a panic that is nobody's overflow is a 500
// whose text names a trace the daemon still serves — the stack is on it —
// and is counted; the worker, the in-flight count and the flight are
// released, so a follower of the same flight gets the leader's error
// rather than waiting forever, and the next request is served.
func TestWorkerPanicIsContained(t *testing.T) {
	ps := &panicStore{Store: store.NewMem(0), entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{Workers: 1, Store: ps})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// compile answers with the trace id a 500 names ("" for anything else).
	compile := func() string {
		_, err := s.Compile(context.Background(), CompileRequest{Source: srcL1})
		if err == nil || statusFor(err) != http.StatusInternalServerError {
			t.Errorf("err = %v, want a 500", err)
			return ""
		}
		m := traceInError.FindStringSubmatch(err.Error())
		if m == nil {
			t.Errorf("error %q names no trace", err)
			return ""
		}
		return m[1]
	}
	leader, follower := make(chan string, 1), make(chan string, 1)
	go func() { leader <- compile() }()
	<-ps.entered // the leader is on the worker, its flight registered
	go func() { follower <- compile() }()
	// The follower's cache miss is the last thing it counts before it
	// looks the flight up.
	for s.CacheStats().Misses < 2 {
		time.Sleep(time.Millisecond)
	}
	ps.release <- struct{}{}

	var ids [2]string
	for i, ch := range []chan string{leader, follower} {
		select {
		case ids[i] = <-ch:
		case <-ps.entered:
			// The follower lost the race to the flight and leads its own.
			ps.release <- struct{}{}
			ids[i] = <-ch
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never got an answer", i)
		}
	}
	want := int64(1)
	if ids[0] != ids[1] {
		want = 2
	}
	if got := s.Metrics().Counter("panics"); got != want {
		t.Errorf("panics = %d, want %d (traces %v)", got, want, ids)
	}
	if n := s.Metrics().Snapshot().Gauges["in_flight"]; n != 0 {
		t.Errorf("in_flight = %d after the panic", n)
	}

	resp, err := http.Get(ts.URL + "/v1/trace/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace obs.Export
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace %s: status %d, %v", ids[0], resp.StatusCode, err)
	}
	stack := ""
	for _, sp := range trace.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "panic" && a.Key == "stack" {
				stack = a.Str
			}
		}
	}
	if !strings.Contains(stack, "panicStore") {
		t.Errorf("trace %s has no panic span holding the panicking frame; stack:\n%s", ids[0], stack)
	}

	// The store recovers; the one worker must still be there to use it.
	s.storeMu.Lock()
	s.st = ps.Store
	s.storeMu.Unlock()
	if resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: srcL1}); resp.StatusCode != http.StatusOK {
		t.Errorf("compile after the panic: status %d (body %s)", resp.StatusCode, body)
	}
}

// TestPanickingBuilderNeverPoisonsTheEntry: a cached plan whose lazy
// program or sequential reference panics while being built answers each
// execute with a 500 carrying that builder's panic — a first panic is not
// kept, so the second execute builds and panics again — never with a nil
// dereference or a validated:false verdict against a missing reference.
// The reference that breaks is the dense one the kernel engine validates
// against.
func TestPanickingBuilderNeverPoisonsTheEntry(t *testing.T) {
	for _, breaks := range []string{"program", "sequential reference"} {
		t.Run(breaks, func(t *testing.T) {
			s := newTestService(t, Config{Workers: 1})
			req := CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}
			entry, _, err := s.compileEntry(context.Background(), req, obs.New("t"))
			if err != nil {
				t.Fatal(err)
			}
			const injected = "injected: the builder fell over"
			comp := newCompiled(entry.comp.nest, entry.comp.res, req.Processors)
			if breaks == "program" {
				comp.program.build = func(*Service, *obs.Trace) (*exec.Program, error) { panic(injected) }
			} else {
				comp.reference.build = func(*Service, *obs.Trace) (*exec.State, error) { panic(injected) }
			}
			entry.comp = comp
			for i := 0; i < 2; i++ {
				resp, err := s.Execute(context.Background(), execReq(req))
				if resp != nil {
					t.Fatalf("execute %d: validated=%v with %d mismatches, want a 500", i, resp.Validated, resp.Mismatches)
				}
				m := traceInError.FindStringSubmatch(fmt.Sprint(err))
				if statusFor(err) != http.StatusInternalServerError || m == nil {
					t.Fatalf("execute %d: err = %v, want a 500 naming its trace", i, err)
				}
				value := ""
				for _, sp := range s.Traces().Get(m[1]).Spans() {
					for _, a := range sp.Attrs {
						if sp.Name == "panic" && a.Key == "value" {
							value = a.Str
						}
					}
				}
				if value != injected {
					t.Errorf("execute %d panicked with %q, want the builder's %q", i, value, injected)
				}
			}
		})
	}
}

// TestOverflowingBoundTermsAreRefused: two nests whose forall bounds are
// exact rationals but whose integer form leaves int64 — one when
// transform scales its terms, one when the walk evaluates a term — are a
// 422 naming the overflow, under a pinned strategy and under auto, never
// a plan with a wrapped block count.
func TestOverflowingBoundTermsAreRefused(t *testing.T) {
	nests := map[string]string{
		"scaled": fmt.Sprintf("for i = %d - 2 to %d + 1\n  for j = %d - 6 to %d - 4\n    A[i, j] = A[i-3, j-2] + 1\n  end\nend\n",
			1<<59, 1<<59, 3<<60, 3<<60),
		"walk": fmt.Sprintf("for i = %d + 2 to %d + 5\n  for j = %d + 168 to %d + 170\n    A[i, j] = A[i-3, j-2] + 1\n  end\nend\n",
			1<<62, 1<<62, 3074457345618258432, 3074457345618258432),
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, src := range nests {
		for _, strategy := range []string{"non-duplicate", "auto"} {
			resp, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: src, Strategy: strategy})
			if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "overflow") {
				t.Errorf("%s %s: status %d, body %.200s; want 422 naming the overflow", name, strategy, resp.StatusCode, body)
			}
		}
	}
	if got := s.Metrics().Counter("panics"); got != 0 {
		t.Errorf("panics = %d: an overflow is the program's, not a bug", got)
	}
}
