// Package obs is the observability layer's structured-tracing core: a
// lightweight span tree per request, cheap enough to stay on for every
// request the service handles.
//
// Design constraints, in order:
//
//   - zero cost when absent: every method is safe on a nil *Trace and a
//     zero SpanHandle, so instrumented code needs no branches and an
//     untraced run does no locking and no allocation;
//   - cheap when present: spans live in one growing slice addressed by
//     dense SpanIDs (no per-span allocation beyond attributes), and the
//     parallel schedulers record their per-block spans lock-free into a
//     caller-owned slice that is appended in a single Bulk call;
//   - self-contained: only the standard library, so any package (machine,
//     partition, exec, service, the binaries) can import it without
//     cycles.
//
// Span timestamps are monotonic offsets from the trace start, exported
// as nanoseconds; the trace start itself carries the wall clock.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span inside one trace. 0 means "no span" (the
// parent of a top-level span, or a handle from a nil trace).
type SpanID int32

// Attr is one span attribute: a key with an integer or string value.
type Attr struct {
	Key string `json:"key"`
	Int int64  `json:"int,omitempty"`
	Str string `json:"str,omitempty"`
}

// Span is one timed operation in a trace's span tree.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNS is the span's start as a monotonic offset from the trace
	// start; DurNS is its duration (-1 while the span is still open).
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// traceSeq makes trace IDs unique within the process.
var traceSeq atomic.Uint64

// traceEpoch distinguishes traces across process restarts.
var traceEpoch = uint64(time.Now().UnixNano()) & 0xffffff

// Trace is one request's span tree. Construct with New; a nil *Trace is
// a valid "tracing disabled" value on which every method no-ops.
type Trace struct {
	id    string
	name  string
	began time.Time
	wall  time.Time

	mu     sync.Mutex
	spans  []Span
	sets   []bulkSet
	remote *Remote // unresolved link to a peer's subtree (nil: none, or resolved)

	// joinMu serializes Join: it is held across the fetch, so concurrent
	// readers of one trace graft its remote subtree exactly once.
	joinMu sync.Mutex
}

// bulkSet is a compact batch of homogeneous child spans — the per-block
// spans of a parallel run. Each span is one int64 row instead of a Span
// struct with pointer-bearing attributes, so the recording hot path
// writes plain integers (no allocation, no GC write barriers) and the
// Span form is materialized only when the trace is actually exported.
type bulkSet struct {
	parent SpanID
	name   string
	keys   []string // attribute keys; row layout is [startNS, durNS, vals...]
	vals   []int64
}

func (s *bulkSet) stride() int { return 2 + len(s.keys) }

// count returns the number of live rows (durNS >= 0).
func (s *bulkSet) count() int {
	n, stride := 0, s.stride()
	for off := 0; off+stride <= len(s.vals); off += stride {
		if s.vals[off+1] >= 0 {
			n++
		}
	}
	return n
}

// New starts a trace. The name labels the request kind ("compile",
// "execute", ...).
func New(name string) *Trace {
	return &Trace{
		id:    fmt.Sprintf("t%06x-%06d", traceEpoch, traceSeq.Add(1)),
		name:  name,
		began: time.Now(),
		wall:  time.Now(),
	}
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Name returns the trace's request kind ("" for a nil trace).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Began returns the trace's wall-clock start.
func (t *Trace) Began() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.wall
}

// Since returns the monotonic offset of "now" from the trace start
// (0 on a nil trace). Callers recording lock-free spans (see Bulk) use it
// for their own start/duration arithmetic.
func (t *Trace) Since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.began)
}

// SpanHandle is a started span. The zero value (from a nil trace) is
// inert: End and the setters no-op.
type SpanHandle struct {
	t     *Trace
	id    SpanID
	start time.Duration
}

// Start opens a span under the given parent (0 for top level) and
// returns its handle. On a nil trace it returns an inert handle.
func (t *Trace) Start(parent SpanID, name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	start := t.Since()
	t.mu.Lock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, StartNS: start.Nanoseconds(), DurNS: -1})
	t.mu.Unlock()
	return SpanHandle{t: t, id: id, start: start}
}

// OK reports whether the handle belongs to a live trace.
func (h SpanHandle) OK() bool { return h.t != nil }

// ID returns the span's ID (0 for an inert handle), usable as a parent
// for child spans.
func (h SpanHandle) ID() SpanID { return h.id }

// End closes the span, fixing its duration.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	d := h.t.Since() - h.start
	h.t.mu.Lock()
	h.t.spans[h.id-1].DurNS = d.Nanoseconds()
	h.t.mu.Unlock()
}

// SetInt attaches an integer attribute to the span.
func (h SpanHandle) SetInt(key string, v int64) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	sp := &h.t.spans[h.id-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Int: v})
	h.t.mu.Unlock()
}

// SetStr attaches a string attribute to the span.
func (h SpanHandle) SetStr(key, v string) {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	sp := &h.t.spans[h.id-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Str: v})
	h.t.mu.Unlock()
}

// Bulk appends caller-built spans in one locked step, assigning IDs in
// order. This is the lock-free recording path for the parallel block
// schedulers: each worker fills disjoint entries of a shared slice
// (Name, Parent, StartNS, DurNS, Attrs), and one Bulk call publishes
// them after the run. Entries with an empty Name are skipped (blocks
// that never ran, e.g. after a budget abort).
func (t *Trace) Bulk(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for i := range spans {
		if spans[i].Name == "" {
			continue
		}
		sp := spans[i]
		sp.ID = SpanID(len(t.spans) + 1)
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Remote names a span subtree that another process recorded: the
// cluster router links the winning forward span of a forwarded request
// to the trace its peer kept, so the request path carries two short
// strings instead of the peer's span tree.
type Remote struct {
	// Under is the local span the remote subtree hangs from.
	Under SpanID
	// Peer and TraceID say where the subtree lives.
	Peer, TraceID string
}

// LinkRemote records the trace's remote subtree; Join resolves it. One
// link per trace: a later call replaces an unresolved earlier one.
func (t *Trace) LinkRemote(r Remote) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.remote = &r
	t.mu.Unlock()
}

// Join resolves the trace's remote link when the trace is read. fetch
// returns the peer's exported spans; they are appended under the linked
// span, so one tree covers the whole cross-node request. Remote span IDs
// are remapped into this trace's ID space with the internal parent links
// preserved; remote top-level spans (or spans whose parent is missing
// from the export) hang from the linked span. Start offsets stay relative
// to the *remote* trace start, so durations are exact while absolute
// positions are the remote clock's.
//
// The outcome is memoized on the trace. Concurrent readers wait for the
// one fetch in flight and graft nothing themselves. A failed fetch marks
// the linked span remote=unavailable with the reason and is final too —
// unless ctx, the reader's own context, is what ended it: a reader that
// hung up leaves the link for the next one. joined reports that this call
// grafted the subtree; err is this call's fetch error. A trace with no
// unresolved link returns (false, nil) without calling fetch.
func (t *Trace) Join(ctx context.Context, fetch func(context.Context, Remote) ([]Span, error)) (joined bool, err error) {
	if t == nil {
		return false, nil
	}
	t.joinMu.Lock()
	defer t.joinMu.Unlock()
	t.mu.Lock()
	r := t.remote
	t.mu.Unlock()
	if r == nil {
		return false, nil
	}
	spans, err := fetch(ctx, *r)
	if err != nil && ctx.Err() != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.remote = nil
	if err != nil {
		sp := &t.spans[r.Under-1]
		sp.Attrs = append(sp.Attrs, Attr{Key: "remote", Str: "unavailable"}, Attr{Key: "reason", Str: err.Error()})
		return false, err
	}
	idmap := make(map[SpanID]SpanID, len(spans))
	for _, sp := range spans {
		if sp.Name == "" {
			continue
		}
		id := SpanID(len(t.spans) + 1)
		idmap[sp.ID] = id
		np := r.Under
		if p, ok := idmap[sp.Parent]; ok && sp.Parent != 0 {
			np = p
		}
		sp.ID, sp.Parent = id, np
		sp.Attrs = append([]Attr(nil), sp.Attrs...)
		t.spans = append(t.spans, sp)
	}
	return true, nil
}

// BulkCompact publishes a set of homogeneous child spans recorded as
// raw int64 rows: stride 2+len(keys) per span, laid out as
// [startNS, durNS, attrValues...]. Rows with durNS < 0 are skipped
// (blocks that never ran, e.g. after a budget abort). The rows become
// ordinary spans named name under parent, with keys as their integer
// attribute keys, materialized lazily on export — publishing is one
// locked slice append regardless of row count.
func (t *Trace) BulkCompact(parent SpanID, name string, keys []string, vals []int64) {
	if t == nil || len(vals) == 0 {
		return
	}
	t.mu.Lock()
	t.sets = append(t.sets, bulkSet{parent: parent, name: name, keys: keys, vals: vals})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in ID order. Compact sets
// are materialized after the directly-recorded spans, in publish order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	extra := 0
	for i := range t.sets {
		extra += t.sets[i].count()
	}
	out := make([]Span, len(t.spans), len(t.spans)+extra)
	copy(out, t.spans)
	id := SpanID(len(t.spans))
	for i := range t.sets {
		set := &t.sets[i]
		stride := set.stride()
		for off := 0; off+stride <= len(set.vals); off += stride {
			row := set.vals[off : off+stride]
			if row[1] < 0 {
				continue
			}
			id++
			attrs := make([]Attr, len(set.keys))
			for k, key := range set.keys {
				attrs[k] = Attr{Key: key, Int: row[2+k]}
			}
			out = append(out, Span{
				ID: id, Parent: set.parent, Name: set.name,
				StartNS: row[0], DurNS: row[1], Attrs: attrs,
			})
		}
	}
	return out
}

// NumSpans returns the span count (compact rows included) without
// materializing anything.
func (t *Trace) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	for i := range t.sets {
		n += t.sets[i].count()
	}
	return n
}

// EachDuration calls fn(name, durNS) for every closed span, compact
// rows included, without materializing Span values — the metrics fold
// uses it to observe stage durations allocation-free.
func (t *Trace) EachDuration(fn func(name string, durNS int64)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].DurNS >= 0 {
			fn(t.spans[i].Name, t.spans[i].DurNS)
		}
	}
	for i := range t.sets {
		set := &t.sets[i]
		stride := set.stride()
		for off := 0; off+stride <= len(set.vals); off += stride {
			if d := set.vals[off+1]; d >= 0 {
				fn(set.name, d)
			}
		}
	}
}

// Export is the wire form of a trace (GET /v1/trace/{id}).
type Export struct {
	TraceID     string `json:"trace_id"`
	Name        string `json:"name"`
	BeganUnixNS int64  `json:"began_unix_ns"`
	// DurNS is the overall extent: the latest span end (0 if empty).
	DurNS int64  `json:"dur_ns"`
	Spans []Span `json:"spans"`
}

// Export snapshots the trace for JSON serialization.
func (t *Trace) Export() Export {
	if t == nil {
		return Export{}
	}
	spans := t.Spans()
	e := Export{
		TraceID:     t.id,
		Name:        t.name,
		BeganUnixNS: t.wall.UnixNano(),
		Spans:       spans,
	}
	for _, sp := range spans {
		if end := sp.StartNS + max64(sp.DurNS, 0); end > e.DurNS {
			e.DurNS = end
		}
	}
	return e
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// treeChildCap bounds the children printed per node in Tree; large
// fan-outs (one span per block) are summarized past this point.
const treeChildCap = 16

// Tree renders the span tree as indented ASCII, children in start
// order, with durations and attributes. Fan-outs beyond treeChildCap
// children per node are summarized with an aggregate line.
func (t *Trace) Tree() string {
	if t == nil {
		return "(no trace)\n"
	}
	spans := t.Spans()
	children := map[SpanID][]Span{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, cs := range children {
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%s)\n", t.id, t.name)
	var walk func(parent SpanID, depth int)
	walk = func(parent SpanID, depth int) {
		cs := children[parent]
		shown := len(cs)
		if shown > treeChildCap {
			shown = treeChildCap
		}
		for _, sp := range cs[:shown] {
			fmt.Fprintf(&b, "%s%s %s%s\n", strings.Repeat("  ", depth+1), sp.Name, fmtDur(sp.DurNS), fmtAttrs(sp.Attrs))
			walk(sp.ID, depth+1)
		}
		if rest := cs[shown:]; len(rest) > 0 {
			var total int64
			for _, sp := range rest {
				total += max64(sp.DurNS, 0)
			}
			fmt.Fprintf(&b, "%s... %d more %q spans (Σ %s)\n",
				strings.Repeat("  ", depth+1), len(rest), rest[0].Name, fmtDur(total))
		}
	}
	walk(0, 0)
	return b.String()
}

func fmtDur(ns int64) string {
	if ns < 0 {
		return "(open)"
	}
	return time.Duration(ns).String()
}

func fmtAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("  [")
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" ")
		}
		if a.Str != "" {
			fmt.Fprintf(&b, "%s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(&b, "%s=%d", a.Key, a.Int)
		}
	}
	b.WriteString("]")
	return b.String()
}
