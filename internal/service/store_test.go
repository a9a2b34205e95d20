package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"commfree/internal/store"
)

func newStoreService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Store == nil && cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	s, err := NewWithStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func planJSON(t *testing.T, p *Plan) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreWriteThroughAndRehydrate is the core restart-warm property:
// a compile on one service writes through to disk, and a fresh service
// over the same directory serves the plan bit-identically via
// rehydration — zero full compiles.
func TestStoreWriteThroughAndRehydrate(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreService(t, Config{StoreDir: dir})
	for _, strat := range []string{"non-duplicate", "duplicate", "auto"} {
		if _, err := s1.Compile(context.Background(), CompileRequest{Source: srcL1, Strategy: strat, Processors: 4}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{}
	for _, strat := range []string{"non-duplicate", "duplicate", "auto"} {
		resp, err := s1.Compile(context.Background(), CompileRequest{Source: srcL1, Strategy: strat, Processors: 4})
		if err != nil {
			t.Fatal(err)
		}
		want[strat] = planJSON(t, resp.Plan)
	}
	if got := s1.Metrics().Counter("compiles"); got != 3 {
		t.Fatalf("first service ran %d compiles, want 3", got)
	}
	if got := s1.Metrics().Counter("store_puts"); got != 3 {
		t.Fatalf("store_puts = %d, want 3", got)
	}
	s1.Close()

	s2 := newStoreService(t, Config{StoreDir: dir})
	for _, strat := range []string{"non-duplicate", "duplicate", "auto"} {
		resp, err := s2.Compile(context.Background(), CompileRequest{Source: srcL1, Strategy: strat, Processors: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Errorf("%s: store hit not reported as cached", strat)
		}
		if got := planJSON(t, resp.Plan); got != want[strat] {
			t.Errorf("%s: rehydrated plan differs from the original\n got %s\nwant %s", strat, got, want[strat])
		}
	}
	m := s2.Metrics()
	if got := m.Counter("compiles"); got != 0 {
		t.Fatalf("restarted service ran %d full compiles, want 0", got)
	}
	if got := m.Counter("rehydrates"); got != 3 {
		t.Fatalf("rehydrates = %d, want 3", got)
	}
	if got := m.Counter("store_hits"); got != 3 {
		t.Fatalf("store_hits = %d, want 3", got)
	}
	// The rehydrated plans execute and validate.
	resp, err := s2.Execute(context.Background(), execReq(CompileRequest{Source: srcL1, Strategy: "auto", Processors: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Validated || resp.InterNodeMessages != 0 {
		t.Fatalf("rehydrated execution invalid: %+v", resp)
	}
	if got := m.Counter("compiles"); got != 0 {
		t.Fatalf("execute of a rehydrated plan triggered %d compiles", got)
	}
}

// TestStoreEvictionReloadsWithoutRecompile is the eviction↔store
// satellite: with a one-entry cache, compiling B evicts A, and a
// re-request of A reloads from disk — the compile counter stays flat.
func TestStoreEvictionReloadsWithoutRecompile(t *testing.T) {
	s := newStoreService(t, Config{CacheEntries: 1})
	m := s.Metrics()
	reqA := CompileRequest{Source: srcL1, Processors: 4}
	reqB := CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}

	respA, err := s.Compile(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(context.Background(), reqB); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("compiles"); got != 2 {
		t.Fatalf("compiles = %d after two distinct requests", got)
	}
	if s.CacheStats().Evictions == 0 {
		t.Fatal("one-entry cache did not evict")
	}

	respA2, err := s.Compile(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("compiles"); got != 2 {
		t.Fatalf("evicted entry recompiled: compiles = %d, want 2", got)
	}
	if got := m.Counter("rehydrates"); got != 1 {
		t.Fatalf("rehydrates = %d, want 1", got)
	}
	if !respA2.Cached {
		t.Error("store reload not reported as cached")
	}
	if planJSON(t, respA2.Plan) != planJSON(t, respA.Plan) {
		t.Error("reloaded plan differs from the original")
	}
}

// TestStoreEvictionRacesLazyExecCompile hammers a one-entry cache with
// concurrent executions of two keys: every request races cache
// eviction against another request's lazy exec-compile (a lazy build on
// the evicted entry). All executions must validate, and the compile
// counter must stay at one per distinct key — every reload came from
// the store. Run under -race.
func TestStoreEvictionRacesLazyExecCompile(t *testing.T) {
	s := newStoreService(t, Config{CacheEntries: 1, Workers: 4})
	reqs := []ExecuteRequest{
		execReq(CompileRequest{Source: srcL1, Processors: 4}),
		execReq(CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := s.Execute(context.Background(), reqs[(g+i)%2])
				if err != nil {
					errs <- err
					return
				}
				if !resp.Validated {
					errs <- fmt.Errorf("unvalidated execution: %+v", resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := s.Metrics()
	if got := m.Counter("compiles"); got != 2 {
		t.Fatalf("compiles = %d, want 2 (one per distinct key)", got)
	}
	if m.Counter("rehydrates") == 0 {
		t.Fatal("vacuous race: no eviction reload ever happened")
	}
}

// TestStoreWarmStart pre-populates a store, restarts, and warm-starts:
// every plan becomes a memory hit with no store traffic per request.
func TestStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreService(t, Config{StoreDir: dir})
	n := 0
	for _, src := range paperSources() {
		if _, err := s1.Compile(context.Background(), CompileRequest{Source: src, Processors: 4}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	s1.Close()

	s2 := newStoreService(t, Config{StoreDir: dir})
	warmed, err := s2.WarmStart(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warmed != n {
		t.Fatalf("warm start revived %d plans, want %d", warmed, n)
	}
	if got := s2.PlanCount(); got != n {
		t.Fatalf("PlanCount = %d, want %d", got, n)
	}
	hitsBefore := s2.CacheStats().Hits
	for _, src := range paperSources() {
		resp, err := s2.Compile(context.Background(), CompileRequest{Source: src, Processors: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatal("warm-started plan missed the cache")
		}
	}
	if got := s2.CacheStats().Hits - hitsBefore; got != int64(n) {
		t.Fatalf("%d cache hits after warm start, want %d", got, n)
	}
	if got := s2.Metrics().Counter("compiles"); got != 0 {
		t.Fatalf("warm-started service ran %d compiles", got)
	}
}

// TestStoreCorruptRecordRecompiles truncates a record on disk between
// restarts: the open scan skips it and the next request falls back to a
// full (correct) compile.
func TestStoreCorruptRecordRecompiles(t *testing.T) {
	dir := t.TempDir()
	s1 := newStoreService(t, Config{StoreDir: dir})
	req := CompileRequest{Source: srcL1, Processors: 4}
	resp1, err := s1.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Truncate every record: the open scan finds nothing intact.
	recs, err := filepath.Glob(filepath.Join(dir, "objects", "*.rec"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no records on disk: %v %v", recs, err)
	}
	for _, f := range recs {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newStoreService(t, Config{StoreDir: dir})
	if st := s2.StoreStats(); st == nil || st.CorruptSkipped == 0 {
		t.Fatalf("the open scan did not skip the truncated record: %+v", st)
	}
	resp2, err := s2.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cached {
		t.Error("corrupt record served as a hit")
	}
	if got := s2.Metrics().Counter("compiles"); got != 1 {
		t.Fatalf("compiles = %d, want 1 (fallback recompile)", got)
	}
	if planJSON(t, resp2.Plan) != planJSON(t, resp1.Plan) {
		t.Error("recompiled plan differs from the pre-corruption plan")
	}
}

// TestStoreImportExport moves a record between services the way a
// cluster migration does: export from a store-backed node, import into
// a plain one (which grows a Mem store on demand), and serve the plan
// there without a compile.
func TestStoreImportExport(t *testing.T) {
	src := newStoreService(t, Config{})
	if _, err := src.Compile(context.Background(), CompileRequest{Source: srcL1, Processors: 4}); err != nil {
		t.Fatal(err)
	}
	recs := src.ExportRecords()
	if len(recs) != 1 {
		t.Fatalf("exported %d records, want 1", len(recs))
	}

	dst := newTestService(t, Config{}) // no store configured at all
	if err := dst.ImportRecord(recs[0]); err != nil {
		t.Fatal(err)
	}
	if got, st := dst.PlanCount(), dst.StoreStats(); got != 1 || st.Gets != 0 {
		t.Fatalf("PlanCount after import = %d, having read %d records; want 1 and none", got, st.Gets)
	}
	resp, err := dst.Compile(context.Background(), CompileRequest{Source: srcL1, Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("imported record not served as a hit")
	}
	if got := dst.Metrics().Counter("compiles"); got != 0 {
		t.Fatalf("imported plan recompiled (%d compiles)", got)
	}
	if got := dst.Metrics().Counter("rehydrates"); got != 1 {
		t.Fatalf("rehydrates = %d, want 1", got)
	}
	if err := dst.ImportRecord(&store.Record{}); err == nil {
		t.Error("ImportRecord accepted an invalid record")
	}
}

// TestStoreTornWritePersistence wires the chaos torn-write schedule
// into the store: some compiles persist torn records, but every request
// still succeeds and a restart serves intact records while recompiling
// torn ones — degradation, never corruption.
func TestStoreTornWritePersistence(t *testing.T) {
	dir := t.TempDir()
	sched := make(map[int64]bool)
	// Tear every other write deterministically (simpler to assert than
	// the probabilistic chaos schedule; the chaos wiring itself is
	// covered by NewWithStore + conformance).
	st, err := store.Open(dir, store.Options{TornWrite: func(seq int64, size int) (int, bool) {
		if sched[seq] {
			return size / 2, true
		}
		return size, false
	}})
	if err != nil {
		t.Fatal(err)
	}
	sched[1] = true // second write torn
	s1 := newStoreService(t, Config{Store: st})
	var sources []string
	for _, name := range []string{"L1", "L2", "L3"} {
		sources = append(sources, paperSources()[name])
	}
	for _, src := range sources {
		if _, err := s1.Compile(context.Background(), CompileRequest{Source: src, Processors: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s1.Metrics().Counter("store_torn_writes"); got != 1 {
		t.Fatalf("store_torn_writes = %d, want 1", got)
	}
	s1.Close()
	st.Close()

	s2 := newStoreService(t, Config{StoreDir: dir})
	compiles := 0
	for _, src := range sources {
		resp, err := s2.Compile(context.Background(), CompileRequest{Source: src, Processors: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			compiles++
		}
	}
	if compiles != 1 {
		t.Fatalf("%d recompiles after one torn write, want exactly 1", compiles)
	}
	if got := s2.Metrics().Counter("compiles"); got != 1 {
		t.Fatalf("compiles = %d, want 1", got)
	}
}

// TestMetricsDocumentStoreSection: the store section appears only on
// store-backed services.
func TestMetricsDocumentStoreSection(t *testing.T) {
	plain := newTestService(t, Config{})
	if doc := plain.MetricsDocument(); doc.Store != nil {
		t.Error("plain service reports a store section")
	}
	backed := newStoreService(t, Config{})
	if _, err := backed.Compile(context.Background(), CompileRequest{Source: srcL1, Processors: 4}); err != nil {
		t.Fatal(err)
	}
	doc := backed.MetricsDocument()
	if doc.Store == nil || doc.Store.Records != 1 {
		t.Fatalf("store section = %+v, want 1 record", doc.Store)
	}
}
