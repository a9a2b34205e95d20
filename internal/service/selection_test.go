package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/obs"
	"commfree/internal/partition"
	"commfree/internal/store"
)

func spanAttrs(sp obs.Span) map[string]any {
	out := map[string]any{}
	for _, a := range sp.Attrs {
		if a.Str != "" {
			out[a.Key] = a.Str
		} else {
			out[a.Key] = a.Int
		}
	}
	return out
}

// TestSelectionSpanRecordsTheDecision: a cold compile's trace says what
// the selector decided on the caller's behalf — how many candidates fell
// into how many classes, who won — with one child span per class holding
// that class's partition, the analysis stages appear once, under the
// selection they now serve, and the forall loop and the assignment are
// derived once, after verify, for the compiled candidate.
func TestSelectionSpanRecordsTheDecision(t *testing.T) {
	s := newTestService(t, Config{})
	resp, err := s.Compile(context.Background(), CompileRequest{Source: lang.Format(loop.L5(4)), Strategy: "auto", Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obs.Span{}
	for _, sp := range s.Traces().Get(resp.TraceID).Spans() {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if len(byName["selection"]) != 1 {
		t.Fatalf("selection spans: %d", len(byName["selection"]))
	}
	sel := byName["selection"][0]
	got := spanAttrs(sel)
	if got["candidates"] != int64(11) || got["classes"] != int64(5) || got["winner"] != resp.Plan.Strategy {
		t.Errorf("selection attrs = %v, want 11 candidates in 5 classes won by %q", got, resp.Plan.Strategy)
	}
	if _, ok := got["selective_skipped"]; ok {
		t.Errorf("selective_skipped set on a three-array nest: %v", got)
	}
	members := int64(0)
	for _, c := range byName["class"] {
		a := spanAttrs(c)
		if c.Parent != sel.ID || a["blocks"] == nil || a["psi_dim"] == nil || a["members"] == nil {
			t.Errorf("class span %+v: parent %d (selection is %d), attrs %v", c, c.Parent, sel.ID, a)
		}
		members += a["members"].(int64)
	}
	if len(byName["class"]) != 5 || members != 11 {
		t.Errorf("%d class spans holding %d candidates, want 5 holding 11", len(byName["class"]), members)
	}
	for _, stage := range []string{"deps", "redundant", "verify", "transform", "assign", "codegen"} {
		if len(byName[stage]) != 1 {
			t.Errorf("stage %q recorded %d times, want once", stage, len(byName[stage]))
		}
	}
	for _, stage := range []string{"transform", "assign"} {
		if sps := byName[stage]; len(sps) == 1 && sps[0].Parent != 0 {
			t.Errorf("stage %q under span %d, want it top-level, for the compiled candidate alone", stage, sps[0].Parent)
		}
	}
	partitions := map[obs.SpanID]int{}
	for _, sp := range byName["partition"] {
		partitions[sp.Parent]++
	}
	for _, c := range byName["class"] {
		if partitions[c.ID] != 1 {
			t.Errorf("class span %d holds %d partition spans, want 1", c.ID, partitions[c.ID])
		}
	}
	if len(byName["partition"]) != 5 {
		t.Errorf("stage \"partition\" recorded %d times, want once per class", len(byName["partition"]))
	}

	// More than four arrays: the subsets are dropped, and the span says so.
	wide := "for i = 1 to 4\n S1: A[i] = B[i] + C[i]\n S2: D[i] = E[i] + A[i]\nend"
	resp, err = s.Compile(context.Background(), CompileRequest{Source: wide, Strategy: "auto", Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range s.Traces().Get(resp.TraceID).Spans() {
		if a := spanAttrs(sp); sp.Name == "selection" && (a["selective_skipped"] != int64(1) || a["candidates"] != int64(5)) {
			t.Errorf("five-array selection attrs = %v, want selective_skipped=1 over 5 candidates", a)
		}
	}
}

// pollCtx turns into a cancelled context after a fixed number of Err
// polls, so cancellation lands inside the selection deterministically.
type pollCtx struct {
	context.Context
	polls int
}

func (c *pollCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestCompileCancelledMidSelection: the request context reaches the
// selector, so a compile cancelled after its second class was priced
// returns context.Canceled having priced no third one — the worker is
// free again within one class's work — and caches nothing; the same
// request then compiles normally.
func TestCompileCancelledMidSelection(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	src := lang.Format(loop.L5(6))
	nest, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	trc := obs.New("compile")
	_, err = s.compile(&pollCtx{Context: context.Background(), polls: 2}, "k", lang.Canonical(nest), partition.Duplicate.String(), 4, trc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	classes := 0
	for _, sp := range trc.Spans() {
		if sp.Name == "class" {
			classes++
		}
		if sp.Name == "verify" || sp.Name == "codegen" {
			t.Errorf("stage %q ran after the cancellation", sp.Name)
		}
	}
	if classes != 2 {
		t.Errorf("%d classes priced before the cancellation took effect, want 2", classes)
	}
	resp, err := s.Compile(context.Background(), CompileRequest{Source: src, Strategy: "duplicate", Processors: 4})
	if err != nil || resp.Cached {
		t.Fatalf("compile after a cancelled one: cached=%v err=%v", resp != nil && resp.Cached, err)
	}
}

// TestRehydrateSpansItsStages: the span tree says what revival does —
// parse, index, partition and verify under the rehydrate span, none of
// the compile's analysis or codegen stages — and the one typed decode of
// the wire plan is a plan_decode span of the compile request that needed
// it, not of the execute that revived the entry nor of a later compile.
func TestRehydrateSpansItsStages(t *testing.T) {
	st := store.NewMem(0)
	req := CompileRequest{Source: srcL1, Strategy: "minimal-duplicate", Processors: 4}
	first := newTestService(t, Config{Store: st})
	if _, err := first.Compile(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Store: st})
	exe, err := s.Execute(context.Background(), execReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics().Counter("rehydrates") != 1 || s.Metrics().Counter("compiles") != 0 {
		t.Fatalf("second service did not rehydrate: %v", s.Metrics().Snapshot().Counters)
	}
	spans := s.Traces().Get(exe.TraceID).Spans()
	var rehydrate obs.SpanID
	for _, sp := range spans {
		if sp.Name == "rehydrate" {
			rehydrate = sp.ID
		}
	}
	under, all := map[string]int{}, map[string]int{}
	for _, sp := range spans {
		all[sp.Name]++
		if sp.Parent == rehydrate {
			under[sp.Name]++
		}
	}
	if fmt.Sprint(under) != fmt.Sprint(map[string]int{"parse": 1, "index": 1, "partition": 1, "verify": 1}) {
		t.Errorf("spans under rehydrate = %v", under)
	}
	for _, stage := range []string{"deps", "redundant", "selection", "codegen", "plan_decode"} {
		if all[stage] != 0 {
			t.Errorf("the reviving execute ran stage %q (%d spans)", stage, all[stage])
		}
	}
	for i, want := range []int{1, 0} {
		resp, err := s.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		decodes := 0
		for _, sp := range s.Traces().Get(resp.TraceID).Spans() {
			if sp.Name == "plan_decode" && sp.Parent == 0 {
				decodes++
			}
		}
		if decodes != want {
			t.Errorf("compile %d after the revival: %d plan_decode spans, want %d", i+1, decodes, want)
		}
	}
}
