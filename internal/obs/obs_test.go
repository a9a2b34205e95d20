package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Name() != "" {
		t.Fatalf("nil trace has identity: %q %q", tr.ID(), tr.Name())
	}
	h := tr.Start(0, "x")
	if h.OK() || h.ID() != 0 {
		t.Fatalf("nil trace produced a live handle: %+v", h)
	}
	// All of these must no-op, not panic.
	h.SetInt("k", 1)
	h.SetStr("k", "v")
	h.End()
	tr.Bulk([]Span{{Name: "b"}})
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace has spans: %v", got)
	}
	if got := tr.Tree(); got != "(no trace)\n" {
		t.Fatalf("nil tree = %q", got)
	}
	if e := tr.Export(); e.TraceID != "" || len(e.Spans) != 0 {
		t.Fatalf("nil export = %+v", e)
	}
	if d := tr.Since(); d != 0 {
		t.Fatalf("nil trace's Since = %v", d)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New("compile")
	if tr.ID() == "" {
		t.Fatal("empty trace ID")
	}
	root := tr.Start(0, "parse")
	root.SetInt("bytes", 42)
	root.End()
	run := tr.Start(0, "exec_run")
	child := tr.Start(run.ID(), "block")
	child.SetInt("worker", 3)
	child.SetStr("strategy", "duplicate")
	child.End()
	run.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "parse" || spans[0].Parent != 0 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[2].Name != "block" || spans[2].Parent != spans[1].ID {
		t.Fatalf("block parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
	for _, sp := range spans {
		if sp.DurNS < 0 {
			t.Errorf("span %s still open (dur %d)", sp.Name, sp.DurNS)
		}
	}
	if spans[2].Attrs[0].Key != "worker" || spans[2].Attrs[0].Int != 3 {
		t.Errorf("attrs = %+v", spans[2].Attrs)
	}

	tree := tr.Tree()
	if !strings.Contains(tree, "parse") || !strings.Contains(tree, "block") {
		t.Errorf("tree missing spans:\n%s", tree)
	}
	// block is indented one level deeper than exec_run.
	var runIndent, blockIndent int
	for _, line := range strings.Split(tree, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "exec_run") {
			runIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "block") {
			blockIndent = len(line) - len(trimmed)
		}
	}
	if blockIndent <= runIndent {
		t.Errorf("block indent %d not deeper than exec_run %d:\n%s", blockIndent, runIndent, tree)
	}
}

func TestBulkAssignsIDsAndSkipsEmpty(t *testing.T) {
	tr := New("x")
	parent := tr.Start(0, "exec_run")
	blocks := make([]Span, 4)
	for i := range blocks {
		if i == 2 {
			continue // simulate a block that never ran
		}
		blocks[i] = Span{Parent: parent.ID(), Name: "block", StartNS: int64(i), DurNS: 1,
			Attrs: []Attr{{Key: "block", Int: int64(i + 1)}}}
	}
	tr.Bulk(blocks)
	parent.End()
	spans := tr.Spans()
	if len(spans) != 4 { // exec_run + 3 blocks
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	seen := map[SpanID]bool{}
	for _, sp := range spans {
		if sp.ID == 0 || seen[sp.ID] {
			t.Fatalf("bad/duplicate span ID in %+v", sp)
		}
		seen[sp.ID] = true
		if sp.Name == "block" && sp.Parent != parent.ID() {
			t.Errorf("block parent = %d, want %d", sp.Parent, parent.ID())
		}
	}
}

func TestExportJSONShape(t *testing.T) {
	tr := New("execute")
	sp := tr.Start(0, "exec_run")
	sp.End()
	// An explicit-duration span makes the dur_ns assertion exact without
	// sleeping for wall-clock time.
	tr.Bulk([]Span{{Name: "block", StartNS: 0, DurNS: int64(time.Millisecond)}})
	data, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trace_id", "name", "began_unix_ns", "dur_ns", "spans"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("export missing %q: %s", key, data)
		}
	}
	if doc["dur_ns"].(float64) < float64(time.Millisecond) {
		t.Errorf("dur_ns = %v, want >= 1ms", doc["dur_ns"])
	}
}

func TestTreeSummarizesLargeFanOut(t *testing.T) {
	tr := New("x")
	parent := tr.Start(0, "exec_run")
	for i := 0; i < treeChildCap+10; i++ {
		c := tr.Start(parent.ID(), "block")
		c.End()
	}
	parent.End()
	tree := tr.Tree()
	if !strings.Contains(tree, "10 more") {
		t.Errorf("large fan-out not summarized:\n%s", tree)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("race")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h := tr.Start(0, fmt.Sprintf("g%d", g))
				h.SetInt("i", int64(i))
				h.End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 400 {
		t.Fatalf("got %d spans, want 400", got)
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	r := NewRing(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := New("t")
		ids = append(ids, tr.ID())
		r.Add(tr)
	}
	if r.Len() != 3 || len(r.buf) != 3 {
		t.Fatalf("len=%d cap=%d, want 3/3", r.Len(), len(r.buf))
	}
	for _, id := range ids[:2] {
		if r.Get(id) != nil {
			t.Errorf("evicted trace %s still retrievable", id)
		}
	}
	for _, id := range ids[2:] {
		if r.Get(id) == nil {
			t.Errorf("trace %s missing", id)
		}
	}
	recent := r.Recent(2)
	if len(recent) != 2 || recent[0].ID() != ids[4] || recent[1].ID() != ids[3] {
		t.Errorf("recent order wrong: %v", recent)
	}
}

func TestUniqueTraceIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := New("x").ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestBulkCompactMaterializesSpans(t *testing.T) {
	trc := New("run")
	root := trc.Start(0, "exec_run")
	// Three rows: [startNS, durNS, worker, words]; the middle row never
	// ran (durNS -1) and must be skipped.
	trc.BulkCompact(root.ID(), "block", []string{"worker", "words"}, []int64{
		100, 50, 3, 12,
		0, -1, 0, 0,
		200, 25, 1, 7,
	})
	root.End()

	if got := trc.NumSpans(); got != 3 { // exec_run + 2 live rows
		t.Fatalf("NumSpans = %d, want 3", got)
	}
	spans := trc.Spans()
	if len(spans) != 3 {
		t.Fatalf("Spans() returned %d spans", len(spans))
	}
	var blocks []Span
	for _, sp := range spans {
		if sp.Name == "block" {
			blocks = append(blocks, sp)
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("materialized %d block spans, want 2", len(blocks))
	}
	// IDs continue after the dense spans, in row order.
	if blocks[0].ID != 2 || blocks[1].ID != 3 {
		t.Errorf("compact span IDs = %d, %d", blocks[0].ID, blocks[1].ID)
	}
	first := blocks[0]
	if first.Parent != root.ID() || first.StartNS != 100 || first.DurNS != 50 {
		t.Errorf("first block span = %+v", first)
	}
	if len(first.Attrs) != 2 || first.Attrs[0] != (Attr{Key: "worker", Int: 3}) || first.Attrs[1] != (Attr{Key: "words", Int: 12}) {
		t.Errorf("first block attrs = %+v", first.Attrs)
	}

	// EachDuration sees dense and compact spans alike, skipping the
	// dead row.
	durs := map[string][]int64{}
	trc.EachDuration(func(name string, d int64) { durs[name] = append(durs[name], d) })
	if len(durs["block"]) != 2 || durs["block"][0] != 50 || durs["block"][1] != 25 {
		t.Errorf("EachDuration block durations = %v", durs["block"])
	}
	if len(durs["exec_run"]) != 1 {
		t.Errorf("EachDuration exec_run durations = %v", durs["exec_run"])
	}

	// Export carries the materialized spans too.
	exp := trc.Export()
	if len(exp.Spans) != 3 {
		t.Errorf("Export has %d spans", len(exp.Spans))
	}
}

func TestBulkCompactOnNilTrace(t *testing.T) {
	var trc *Trace
	trc.BulkCompact(0, "block", []string{"w"}, []int64{0, 1, 2})
	trc.EachDuration(func(string, int64) { t.Fatal("callback on nil trace") })
	if trc.NumSpans() != 0 {
		t.Fatal("NumSpans on nil trace")
	}
}

// remoteExport is a peer's three-span export: two top-level spans and a
// child of the second, with IDs from the peer's own ID space.
func remoteExport() []Span {
	return []Span{
		{ID: 1, Name: "parse", StartNS: 0, DurNS: 10, Attrs: []Attr{{Key: "bytes", Int: 7}}},
		{ID: 2, Name: "exec_run", StartNS: 20, DurNS: 30},
		{ID: 3, Parent: 2, Name: "block", StartNS: 25, DurNS: 5},
	}
}

func TestJoinGraftsUnderTheLinkedSpanOnce(t *testing.T) {
	trc := New("route")
	root := trc.Start(0, "route")
	fwd := trc.Start(root.ID(), "forward")
	fwd.End()
	root.End()
	trc.LinkRemote(Remote{Under: fwd.ID(), Peer: "n1", TraceID: "t000000-000009"})

	// 16 readers race for the one join; the fetch must run once and only
	// one reader may report having grafted.
	var fetches, grafts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			joined, err := trc.Join(context.Background(), func(_ context.Context, r Remote) ([]Span, error) {
				fetches.Add(1)
				if r.Peer != "n1" || r.TraceID != "t000000-000009" {
					t.Errorf("fetch got %+v", r)
				}
				return remoteExport(), nil
			})
			if err != nil {
				t.Error(err)
			}
			if joined {
				grafts.Add(1)
			}
		}()
	}
	wg.Wait()
	if fetches.Load() != 1 || grafts.Load() != 1 {
		t.Fatalf("fetches = %d, grafts = %d; want 1 and 1", fetches.Load(), grafts.Load())
	}

	spans := trc.Spans()
	if len(spans) != 5 {
		t.Fatalf("%d spans after the join, want 5", len(spans))
	}
	parse, run, block := spans[2], spans[3], spans[4]
	if parse.Parent != fwd.ID() || run.Parent != fwd.ID() {
		t.Errorf("remote top-level spans hang from %d and %d, want the forward span %d", parse.Parent, run.Parent, fwd.ID())
	}
	if block.Parent != run.ID {
		t.Errorf("remote child's parent = %d, want the remapped exec_run %d", block.Parent, run.ID)
	}
	if parse.DurNS != 10 || len(parse.Attrs) != 1 || parse.Attrs[0].Int != 7 {
		t.Errorf("remote span lost its payload: %+v", parse)
	}
}

func TestJoinFailureMarksTheSpanAndIsFinal(t *testing.T) {
	trc := New("route")
	fwd := trc.Start(0, "forward")
	fwd.End()
	trc.LinkRemote(Remote{Under: fwd.ID(), Peer: "n1", TraceID: "gone"})

	calls := 0
	fail := func(context.Context, Remote) ([]Span, error) {
		calls++
		return nil, errors.New("connection refused")
	}
	if joined, err := trc.Join(context.Background(), fail); joined || err == nil {
		t.Fatalf("Join = %v, %v; want false and the fetch error", joined, err)
	}
	if joined, err := trc.Join(context.Background(), fail); joined || err != nil || calls != 1 {
		t.Fatalf("second Join = %v, %v after %d fetches; want a no-op", joined, err, calls)
	}
	tree := trc.Tree()
	if strings.Count(tree, "remote=unavailable") != 1 || !strings.Contains(tree, "reason=connection refused") {
		t.Errorf("forward span not marked once:\n%s", tree)
	}
}

func TestJoinLeavesTheLinkWhenTheReaderGaveUp(t *testing.T) {
	trc := New("route")
	fwd := trc.Start(0, "forward")
	fwd.End()
	trc.LinkRemote(Remote{Under: fwd.ID(), Peer: "n1", TraceID: "t1"})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := trc.Join(ctx, func(ctx context.Context, _ Remote) ([]Span, error) { return nil, ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the reader's cancellation", err)
	}
	if strings.Contains(trc.Tree(), "remote=") {
		t.Fatalf("a reader that hung up marked the span:\n%s", trc.Tree())
	}
	joined, err := trc.Join(context.Background(), func(context.Context, Remote) ([]Span, error) { return remoteExport(), nil })
	if !joined || err != nil {
		t.Fatalf("next reader's Join = %v, %v; want the graft", joined, err)
	}
}

func TestJoinWithoutALink(t *testing.T) {
	fetch := func(context.Context, Remote) ([]Span, error) {
		t.Error("fetch called with nothing to join")
		return nil, nil
	}
	var none *Trace
	none.LinkRemote(Remote{})
	for _, trc := range []*Trace{none, New("compile")} {
		if joined, err := trc.Join(context.Background(), fetch); joined || err != nil {
			t.Errorf("Join = %v, %v", joined, err)
		}
	}
}
