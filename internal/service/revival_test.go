package service

// Revival is analysis-free: a store hit rebuilds the live plan from the
// record's (canonical source, strategy, Ψ) alone. These tests hold that
// to the compile it stands in for — same blocks, same redundancy bits,
// same execution, same bytes on the wire — and show that a record whose
// Ψ or plan was tampered with is caught and recompiled, never served.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"commfree/internal/exec"
	"commfree/internal/lang"
	"commfree/internal/obs"
	"commfree/internal/store"
)

var sixStrategies = []string{"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate", "mars", "auto"}

// machineAccounting is everything an execute response reports of a run.
func machineAccounting(rep *exec.Report) []any {
	m := rep.Machine
	return []any{m.DistributionTime(), m.ComputeTime(), m.Elapsed(), m.Messages(), m.DataMoved(), m.InterNodeMessages(), rep.IterationsPerNode}
}

// TestRevivalMatchesCompile: over lang.Corpus() and L1–L5 × six
// strategies × p ∈ {4, 16}, the entry revived from a compiled entry's own
// record is indistinguishable from it.
func TestRevivalMatchesCompile(t *testing.T) {
	sources := lang.Corpus()
	for _, src := range paperSources() {
		sources = append(sources, src)
	}
	s := newTestService(t, Config{})
	cases := 0
	for _, src := range sources {
		if _, err := s.parseSource(src); err != nil {
			continue // a deliberate rejection of the corpus
		}
		for _, strat := range sixStrategies {
			for _, p := range []int{4, 16} {
				req := CompileRequest{Source: src, Strategy: strat, Processors: p}
				fresh, _, err := s.compileEntry(context.Background(), req, obs.New("compile"))
				if err != nil {
					t.Fatalf("compile %q %s p=%d: %v", src, strat, p, err)
				}
				revived, err := s.rehydrate(fresh.rec, nil)
				if err != nil {
					t.Fatalf("revive %q %s p=%d: %v", src, strat, p, err)
				}
				cases++
				a, b := fresh.comp.res, revived.comp.res
				if revived.label != fresh.label || b.Strategy != a.Strategy || !b.Psi.Equal(a.Psi) {
					t.Errorf("%s p=%d: revived as %q %s Ψ=%s, compiled as %q %s Ψ=%s", strat, p, revived.label, b.Strategy, b.Psi, fresh.label, a.Strategy, a.Psi)
				}
				if !reflect.DeepEqual(b.Iter.Blocks, a.Iter.Blocks) {
					t.Errorf("%q %s p=%d: revived blocks differ from the compiled ones", src, strat, p)
				}
				if (a.Redundant == nil) != (b.Redundant == nil) {
					t.Fatalf("%q %s p=%d: redundancy oracle compiled=%v revived=%v", src, strat, p, a.Redundant != nil, b.Redundant != nil)
				}
				for st := range fresh.comp.nest.Body {
					for pos := range a.Iter.Index.Points {
						if a.Redundant != nil && a.Redundant.RedundantAt(st, pos) != b.Redundant.RedundantAt(st, pos) {
							t.Fatalf("%q %s p=%d: redundancy bit S%d@%d differs", src, strat, p, st+1, pos)
						}
					}
				}
				ka, errA := fresh.comp.kernel.get(context.Background(), s, nil)
				kb, errB := revived.comp.kernel.get(context.Background(), s, nil)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%q %s p=%d: kernel compiled err=%v, revived err=%v", src, strat, p, errA, errB)
				}
				if errA == nil {
					ra, errA := ka.Run(s.cfg.Cost, exec.Options{})
					rb, errB := kb.Run(s.cfg.Cost, exec.Options{})
					if errA != nil || errB != nil {
						t.Fatalf("%q %s p=%d: kernel runs: %v, %v", src, strat, p, errA, errB)
					}
					if !reflect.DeepEqual(rb.Final, ra.Final) {
						t.Errorf("%q %s p=%d: revived kernel's final state differs", src, strat, p)
					}
					if got, want := machineAccounting(rb), machineAccounting(ra); !reflect.DeepEqual(got, want) {
						t.Errorf("%q %s p=%d: machine accounting %v, compiled %v", src, strat, p, got, want)
					}
				}
				plan, err := revived.typed(context.Background(), s, nil)
				if err != nil {
					t.Fatalf("%q %s p=%d: revived plan does not decode: %v", src, strat, p, err)
				}
				if got, want := planJSON(t, plan), planJSON(t, fresh.plan); got != want {
					t.Errorf("%q %s p=%d: revived plan bytes differ\n got %s\nwant %s", src, strat, p, got, want)
				}
			}
		}
	}
	t.Logf("%d (source, strategy, processors) cases", cases)
	if cases < 5*len(sixStrategies)*2 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// tamper returns a copy of the record with edit applied to the record's
// revival fields and, consistently, to its plan — the strongest forgery
// the CRC-less import path can be handed.
func tamper(t *testing.T, rec *store.Record, edit func(psi *[][]int64, blocks *int)) *store.Record {
	t.Helper()
	out := *rec
	var plan Plan
	if err := json.Unmarshal(rec.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	edit(&plan.Partition.PsiBasis, &plan.Partition.NumBlocks)
	out.PsiBasis, out.Blocks = plan.Partition.PsiBasis, plan.Partition.NumBlocks
	var err error
	if out.Plan, err = json.Marshal(&plan); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestRevivalRejectsTamperedPsi: a record that is self-consistent but
// carries the wrong Ψ does not revive — too small a Ψ splits dependent
// iterations and fails Verify, too large a one verifies but cannot
// produce the recorded block count — and the request is answered by a
// full compile, bit-identical to a cold one.
func TestRevivalRejectsTamperedPsi(t *testing.T) {
	req := CompileRequest{Source: srcL1, Processors: 4}
	origin := newTestService(t, Config{})
	cold, err := origin.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	good := origin.ExportRecords()[0]
	if len(good.PsiBasis) != 1 || good.Blocks < 2 {
		t.Fatalf("L1 non-duplicate should have a 1-dimensional Ψ and several blocks: %+v", good)
	}
	for name, tc := range map[string]struct {
		edit func(psi *[][]int64, blocks *int)
		want string
	}{
		"psi shrunk": {func(psi *[][]int64, _ *int) { *psi = [][]int64{} }, "accessed by blocks"},
		"psi grown":  {func(psi *[][]int64, _ *int) { *psi = [][]int64{{1, 0}, {0, 1}} }, "revives to 1 blocks"},
	} {
		bad := tamper(t, good, tc.edit)
		s := newTestService(t, Config{})
		if err := s.ImportRecord(bad); err != nil {
			t.Fatalf("%s: a self-consistent record was refused at import: %v", name, err)
		}
		if _, err := s.rehydrate(bad, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rehydrate error %v, want one mentioning %q", name, err, tc.want)
		}
		resp, err := s.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if resp.Cached || m.Counter("store_rehydrate_errors") != 1 || m.Counter("rehydrates") != 0 || m.Counter("compiles") != 1 {
			t.Errorf("%s: cached=%v counters=%v", name, resp.Cached, m.Snapshot().Counters)
		}
		if got, want := planJSON(t, resp.Plan), planJSON(t, cold.Plan); got != want {
			t.Errorf("%s: the fallback compile differs from a cold one\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestImportRejectsInconsistentRecords: the import path has no checksum,
// so it decodes the plan once and refuses a record whose plan does not
// parse or disagrees with the record's own revival fields.
func TestImportRejectsInconsistentRecords(t *testing.T) {
	origin := newTestService(t, Config{})
	if _, err := origin.Compile(context.Background(), CompileRequest{Source: srcL1, Processors: 4}); err != nil {
		t.Fatal(err)
	}
	good := origin.ExportRecords()[0]
	for name, edit := range map[string]func(r *store.Record){
		"plan is not JSON": func(r *store.Record) { r.Plan = []byte(`{"canonical_source": `) },
		"processors":       func(r *store.Record) { r.Processors = 8 },
		"label":            func(r *store.Record) { r.Label = "duplicate" },
		"no label":         func(r *store.Record) { r.Label = "" },
		"psi":              func(r *store.Record) { r.PsiBasis = [][]int64{{1, 0}} },
		"psi dropped":      func(r *store.Record) { r.PsiBasis = nil },
		"blocks":           func(r *store.Record) { r.Blocks++ },
	} {
		bad := *good
		edit(&bad)
		dst := newTestService(t, Config{})
		if err := dst.ImportRecord(&bad); err == nil {
			t.Errorf("%s: ImportRecord accepted the record", name)
		}
		if dst.PlanCount() != 0 {
			t.Errorf("%s: the refused record was stored", name)
		}
	}
	dst := newTestService(t, Config{})
	if err := dst.ImportRecord(good); err != nil {
		t.Fatalf("the untouched record was refused: %v", err)
	}
}

// TestLazyPlanDecodeFailureRecompiles: plan bytes that reach the store
// past the import check (a direct Put) and turn out not to decode when a
// compile first asks for them drop the entry and the record, count a
// corrupt record and answer with a full compile — after executes that
// never needed the typed plan were served from the revived entry.
func TestLazyPlanDecodeFailureRecompiles(t *testing.T) {
	req := CompileRequest{Source: srcL1, Processors: 4}
	origin := newTestService(t, Config{})
	cold, err := origin.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	bad := *origin.ExportRecords()[0]
	bad.Plan = []byte(`{"processors": 4, "spmd_go": 17}`)
	st := store.NewMem(0)
	if err := st.Put(&bad); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Store: st})
	exe, err := s.Execute(context.Background(), execReq(req))
	if err != nil || !exe.Validated || !exe.Cached || exe.Strategy != cold.Plan.Strategy {
		t.Fatalf("execute on the revived entry: %+v, %v", exe, err)
	}
	m := s.Metrics()
	if m.Counter("rehydrates") != 1 || m.Counter("compiles") != 0 {
		t.Fatalf("the execute did not revive: %v", m.Snapshot().Counters)
	}
	resp, err := s.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan == nil || resp.Cached {
		t.Fatalf("compile over a bad plan: plan=%v cached=%v", resp.Plan, resp.Cached)
	}
	if got, want := planJSON(t, resp.Plan), planJSON(t, cold.Plan); got != want {
		t.Errorf("the recompiled plan differs from a cold one\n got %s\nwant %s", got, want)
	}
	if m.Counter("store_corrupt_records") != 1 || m.Counter("compiles") != 1 {
		t.Errorf("counters after the failed decode: %v", m.Snapshot().Counters)
	}
	if rec, ok, _ := st.Get(bad.Key); !ok || string(rec.Plan) == string(bad.Plan) {
		t.Errorf("the store still holds the bad plan (present=%v)", ok)
	}
}

// TestStoreHitDoesNotParseTheSource: on a memoized source whose plan was
// evicted to the store, the request's own text is never parsed — revival
// works from the record — so source_parses counts true misses only.
func TestStoreHitDoesNotParseTheSource(t *testing.T) {
	s := newStoreService(t, Config{CacheEntries: 1})
	reqA := CompileRequest{Source: srcL1, Processors: 4}
	reqB := CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4}
	for _, req := range []CompileRequest{reqA, reqB} { // B evicts A
		if _, err := s.Compile(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	parses := m.Counter("source_parses")
	for i, req := range []CompileRequest{reqA, reqB, reqA} {
		if resp, err := s.Compile(context.Background(), req); err != nil || !resp.Cached {
			t.Fatalf("request %d: cached=%v err=%v", i, resp != nil && resp.Cached, err)
		}
	}
	if got := m.Counter("source_parses") - parses; got != 0 {
		t.Errorf("%d source parses across three store hits on a memoized source, want 0", got)
	}
	if m.Counter("rehydrates") != 3 || m.Counter("compiles") != 2 {
		t.Errorf("counters: %v", m.Snapshot().Counters)
	}
}

// TestStoreV1RecordsRecompile: a store directory written in the previous
// record format is read as holding nothing — every file fails the version
// check — and its plans recompile on demand to the same bytes.
func TestStoreV1RecordsRecompile(t *testing.T) {
	dir := t.TempDir()
	req := CompileRequest{Source: srcL1, Processors: 4}
	s1 := newStoreService(t, Config{StoreDir: dir})
	resp1, err := s1.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "objects", "*.rec"))
	if len(files) != 1 {
		t.Fatalf("records on disk: %v", files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Decode(files[0], data)
	if err != nil {
		t.Fatal(err)
	}
	// Version 1: header, then the whole record — plan included — as one
	// JSON payload under the CRC.
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("CFPS"), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	binary.LittleEndian.PutUint32(v1[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(v1[12:], crc32.ChecksumIEEE(payload))
	v1 = append(v1, payload...)
	if _, err := store.Decode("v1", v1); err == nil || !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("Decode of the v1 file: %v", err)
	}
	if err := os.WriteFile(files[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}

	// The open scan decodes every record, so it skips this one.
	s2 := newStoreService(t, Config{StoreDir: dir})
	if st := s2.StoreStats(); st.CorruptSkipped != 1 || st.Records != 0 {
		t.Fatalf("store over a v1 file: %+v", st)
	}
	resp2, err := s2.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if m := s2.Metrics(); resp2.Cached || m.Counter("rehydrates") != 0 || m.Counter("compiles") != 1 {
		t.Errorf("cached=%v counters=%v", resp2.Cached, m.Snapshot().Counters)
	}
	if planJSON(t, resp2.Plan) != planJSON(t, resp1.Plan) {
		t.Error("the recompiled plan differs from the one the v1 record held")
	}
	if resp3, err := s2.Compile(context.Background(), req); err != nil || !resp3.Cached {
		t.Errorf("after the recompile: cached=%v err=%v", resp3 != nil && resp3.Cached, err)
	}
}

// TestLazyPlanDecodeIsSharedAcrossConcurrentCompiles: eight compiles
// racing for a revived entry's typed plan decode it once between them
// and all answer with the same bytes. Run under -race.
func TestLazyPlanDecodeIsSharedAcrossConcurrentCompiles(t *testing.T) {
	st := store.NewMem(0)
	req := CompileRequest{Source: srcL1, Strategy: "auto", Processors: 4}
	cold, err := newTestService(t, Config{Store: st}).Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Store: st, Workers: 4})
	if _, err := s.Execute(context.Background(), execReq(req)); err != nil { // revives; decodes nothing
		t.Fatal(err)
	}
	const n = 8
	resps := make([]*CompileResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()
	decodes := 0
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if planJSON(t, resp.Plan) != planJSON(t, cold.Plan) {
			t.Errorf("compile %d answered with a different plan", i)
		}
		for _, sp := range s.Traces().Get(resp.TraceID).Spans() {
			if sp.Name == "plan_decode" {
				decodes++
			}
		}
	}
	if decodes != 1 || s.Metrics().Counter("compiles") != 0 {
		t.Errorf("%d plan_decode spans over %d concurrent compiles (want 1), compiles=%d", decodes, n, s.Metrics().Counter("compiles"))
	}
}
