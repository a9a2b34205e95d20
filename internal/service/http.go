package service

// HTTP front end: JSON in, JSON out.
//
//	POST /v1/compile     {source, strategy?, processors?} → CompileResponse
//	POST /v1/execute     {source, strategy?, processors?, chaos_seed?}
//	                     → ExecuteResponse
//	GET  /v1/metrics     → metrics document (stages, counters, gauges, cache);
//	                       ?format=prometheus renders text exposition 0.0.4
//	GET  /v1/trace/{id}  → span tree of a recent request (JSON export;
//	                       ?format=tree renders ASCII); bare /v1/trace/
//	                       lists recent traces newest first
//	GET  /healthz        → {"status":"ok"}
//
// A 200 from the two POST endpoints repeats its trace_id in the
// X-Commfree-Trace-Id header, for proxies that relay the body unparsed.
//
// Error responses are {"error": "..."} with 400 for malformed input,
// 422 when the normalization pass rejects a well-formed nest (the body
// carries the ClassifyError: rejection class, offending reference,
// failed condition), spans more iterations than the budget, or has
// coefficients that overflow the exact analysis, 429 (plus Retry-After)
// when admission control sheds load, 503 while draining, 504 on
// per-request timeout, and 500 otherwise — a contained worker panic
// included, whose error names the trace that holds its stack.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"commfree/internal/intlin"
	"commfree/internal/machine"
	"commfree/internal/normalize"
	"commfree/internal/store"
)

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", func(w http.ResponseWriter, r *http.Request) {
		handleJSON(s, w, r, s.Compile)
	})
	mux.HandleFunc("/v1/execute", func(w http.ResponseWriter, r *http.Request) {
		handleJSON(s, w, r, s.Execute)
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
			return
		}
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.WritePrometheus(w)
			return
		}
		writeJSON(w, http.StatusOK, s.MetricsDocument())
	})
	mux.HandleFunc("/v1/trace/", func(w http.ResponseWriter, r *http.Request) {
		s.handleTrace(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// TraceSummary is one entry of the GET /v1/trace/ listing.
type TraceSummary struct {
	TraceID     string `json:"trace_id"`
	Name        string `json:"name"`
	BeganUnixNS int64  `json:"began_unix_ns"`
	Spans       int    `json:"spans"`
}

// handleTrace serves GET /v1/trace/{id} (the span tree of one recent
// request) and GET /v1/trace/ (a listing of recent traces, newest
// first). Traces fall out of the bounded ring as new requests land, so
// a 404 means evicted or never existed.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" {
		recent := s.traces.Recent(64)
		out := make([]TraceSummary, 0, len(recent))
		for _, trc := range recent {
			out = append(out, TraceSummary{
				TraceID:     trc.ID(),
				Name:        trc.Name(),
				BeganUnixNS: trc.Began().UnixNano(),
				Spans:       trc.NumSpans(),
			})
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	trc := s.traces.Get(id)
	if trc == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("trace %q not found (evicted or never existed)", id))
		return
	}
	if r.URL.Query().Get("format") == "tree" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(trc.Tree()))
		return
	}
	writeJSON(w, http.StatusOK, trc.Export())
}

// MetricsDocument is the full /v1/metrics payload: the generic registry
// snapshot plus the cache section, and — on store-backed services —
// the plan-store section.
type MetricsDocument struct {
	Snapshot
	Cache CacheStats   `json:"cache"`
	Store *store.Stats `json:"store,omitempty"`
}

// MetricsDocument assembles the /v1/metrics payload.
func (s *Service) MetricsDocument() MetricsDocument {
	return MetricsDocument{Snapshot: s.metrics.Snapshot(), Cache: s.cache.stats(), Store: s.StoreStats()}
}

// handleJSON decodes the endpoint's request type, serves it, and maps
// errors to statuses. A free generic function because methods cannot
// have type parameters.
func handleJSON[T any, R interface{ traceID() string }](s *Service, w http.ResponseWriter, r *http.Request, serve func(context.Context, T) (R, error)) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+4096))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := serve(r.Context(), req)
	if err != nil {
		status := statusFor(err)
		// 429 (shed) and 503 (draining) both mean "this node, right now":
		// Retry-After tells clients — and cluster peers, which re-route on
		// these statuses — when the condition is expected to clear. Sheds
		// carry a drain-rate-derived estimate from the admission
		// controller; drains keep the fixed hint.
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			ra := "1"
			if d := RetryAfterHint(err); d > 0 {
				ra = fmt.Sprintf("%d", int64(d.Seconds()+0.5))
			}
			w.Header().Set("Retry-After", ra)
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set(HeaderTraceID, resp.traceID())
	writeJSON(w, http.StatusOK, resp)
}

// HeaderTraceID carries a 200 response's trace_id, so a proxy (the
// cluster router) learns it without parsing the body.
const HeaderTraceID = "X-Commfree-Trace-Id"

func (r *CompileResponse) traceID() string { return r.TraceID }
func (r *ExecuteResponse) traceID() string { return r.TraceID }

// statusFor maps service errors to HTTP statuses.
func statusFor(err error) int {
	var bad *BadRequestError
	var classify *normalize.ClassifyError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.As(err, &classify):
		// Well-formed source the pass provably cannot normalize: the
		// request is syntactically fine but semantically out of scope.
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, machine.ErrBudgetExhausted), errors.Is(err, intlin.ErrOverflow):
		// A well-formed program too large to enumerate, or to analyse in
		// exact 64-bit arithmetic.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
