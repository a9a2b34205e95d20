package service

// Plan-store integration: the read-through layer under the LRU cache.
//
// The pipeline is a pure function of (canonical nest, strategy,
// processors), so a compiled plan is a content-addressable artifact.
// With a store configured the cache becomes a two-level hierarchy:
//
//	memory hit   → serve the live cacheEntry (as before);
//	store hit    → rehydrate: the partition is a function of (nest,
//	               strategy, Ψ) and the record carries all three, so
//	               revival is parse + index + a coset split + Verify —
//	               no dependence analysis, selection or codegen — and
//	               the wire plan stays bytes until a Compile response
//	               needs it typed (cacheEntry.typed);
//	miss         → full compile, then write the record through.
//
// Eviction therefore means "demote to disk" (the record is re-Put if
// the store lost it), not "recompile"; a restart against the same
// store directory is warm. The `compiles` counter counts full pipeline
// runs and `rehydrates` counts store revivals, so tests can prove a
// plan was served without recompilation rather than assume it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"commfree/internal/chaos"
	"commfree/internal/lang"
	"commfree/internal/loop"
	"commfree/internal/obs"
	"commfree/internal/partition"
	"commfree/internal/space"
	"commfree/internal/store"
)

// NewWithStore builds a Service whose plan store is opened from
// cfg.StoreDir (when cfg.Store is nil). When chaos is configured with a
// torn-write probability, the store's write path is wired to the
// seed-pure schedule, so persistence faults replay deterministically.
func NewWithStore(cfg Config) (*Service, error) {
	owns := false
	if cfg.Store == nil && cfg.StoreDir != "" {
		var opts store.Options
		if cfg.ChaosSeed != 0 && cfg.Chaos.TornWriteProb > 0 {
			opts.TornWrite = chaos.NewSchedule(cfg.ChaosSeed, cfg.Chaos).TornWrite
		}
		st, err := store.Open(cfg.StoreDir, opts)
		if err != nil {
			return nil, err
		}
		cfg.Store = st
		owns = true
	}
	s := New(cfg)
	s.ownsStore = owns
	return s, nil
}

// store returns the service's plan store, nil when none is configured.
func (s *Service) store() store.Store {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	return s.st
}

// ensureStore returns the plan store, lazily creating a bounded
// in-memory one the first time a service without persistence needs
// somewhere to keep records (e.g. a cluster node receiving migrated
// plans).
func (s *Service) ensureStore() store.Store {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.st == nil {
		s.st = store.NewMem(0)
	}
	return s.st
}

// StoreStats snapshots the plan-store counters (nil when no store has
// been configured or created).
func (s *Service) StoreStats() *store.Stats {
	st := s.store()
	if st == nil {
		return nil
	}
	stats := st.Stats()
	return &stats
}

// recordFor builds the persistent record of one compilation.
func recordFor(key string, plan *Plan, res *partition.Result, duplicated []string) (*store.Record, error) {
	payload, err := encodePlan(plan)
	if err != nil {
		return nil, err
	}
	rec := &store.Record{
		Key:             key,
		CanonicalSource: plan.CanonicalSource,
		Strategy:        res.Strategy.WireName(),
		Processors:      plan.Processors,
		Label:           plan.Strategy,
		PsiBasis:        plan.Partition.PsiBasis,
		Blocks:          plan.Partition.NumBlocks,
		Plan:            payload,
		CreatedUnixNS:   time.Now().UnixNano(),
	}
	if res.Strategy == partition.Selective {
		rec.Duplicated = append([]string(nil), duplicated...)
	}
	return rec, nil
}

// decodePlan types a record's wire plan and holds it to the record's own
// fields: what revival built the partition from (and what an execute
// answers with) must be what the plan says.
func decodePlan(rec *store.Record) (*Plan, error) {
	var plan Plan
	if err := json.Unmarshal(rec.Plan, &plan); err != nil {
		return nil, fmt.Errorf("service: record %q plan does not parse: %w", rec.Key, err)
	}
	switch {
	case plan.Processors != rec.Processors:
		return nil, fmt.Errorf("service: record %q plan/record processor mismatch (%d vs %d)", rec.Key, plan.Processors, rec.Processors)
	case plan.Strategy != rec.Label:
		return nil, fmt.Errorf("service: record %q plan/record label mismatch (%q vs %q)", rec.Key, plan.Strategy, rec.Label)
	case plan.Partition.NumBlocks != rec.Blocks:
		return nil, fmt.Errorf("service: record %q plan/record block count mismatch (%d vs %d)", rec.Key, plan.Partition.NumBlocks, rec.Blocks)
	case !slices.EqualFunc(plan.Partition.PsiBasis, rec.PsiBasis, slices.Equal[[]int64]):
		return nil, fmt.Errorf("service: record %q plan/record Ψ mismatch (%v vs %v)", rec.Key, plan.Partition.PsiBasis, rec.PsiBasis)
	}
	return &plan, nil
}

// storePut writes rec to st and counts the outcome: under counter when
// the record landed, as store_torn_writes when the fault hook tore it —
// an error to no caller, the plan recompiles on demand — and otherwise as
// store_put_errors, with the error.
func (s *Service) storePut(st store.Store, rec *store.Record, counter string) error {
	err := st.Put(rec)
	var te *store.TornWriteError
	switch {
	case err == nil:
		s.metrics.Inc(counter, 1)
	case errors.As(err, &te):
		s.metrics.Inc("store_torn_writes", 1)
		return nil
	default:
		s.metrics.Inc("store_put_errors", 1)
	}
	return err
}

// persist writes the entry's record through to the store (when one is
// configured), counting rather than failing on write faults: the plan
// is already live in memory and a lost record just recompiles later.
func (s *Service) persist(e *cacheEntry) {
	if st := s.store(); st != nil && e.rec != nil {
		_ = s.storePut(st, e.rec, "store_puts")
	}
}

// cacheAdd inserts the entry and demotes evicted entries to the store:
// any evicted plan whose record the store no longer holds (bounded Mem
// store, earlier torn write) is re-Put, so eviction never destroys the
// only copy while a store exists. A failed demotion is counted, like a
// failed persist.
func (s *Service) cacheAdd(e *cacheEntry) {
	evicted := s.cache.add(e)
	if len(evicted) == 0 {
		return
	}
	st := s.store()
	if st == nil {
		return
	}
	for _, old := range evicted {
		if old.rec != nil && !st.Has(old.key) {
			_ = s.storePut(st, old.rec, "store_demotes")
		}
	}
}

// entryBytes is the cache-accounting size of an entry: its record's text
// plus a struct overhead estimate.
func entryBytes(rec *store.Record) int64 {
	return int64(len(rec.Key) + len(rec.CanonicalSource) + len(rec.Plan) + 4096)
}

// forget drops a revived entry whose record's plan turned out not to
// decode, from the cache and the store both, so the next lookup of its
// key compiles.
func (s *Service) forget(e *cacheEntry) {
	s.metrics.Inc("store_corrupt_records", 1)
	s.cache.remove(e)
	if st := s.store(); st != nil {
		_ = st.Delete(e.key) // a record that outlives this is dropped again on its next decode
	}
}

// rehydrateFromStore serves a cache miss from the plan store: nil when
// there is no store, no record, or the record does not revive (fall
// through to a full compile — always correct, the pipeline is pure).
func (s *Service) rehydrateFromStore(key string, trc *obs.Trace) *cacheEntry {
	st := s.store()
	if st == nil {
		return nil
	}
	rec, ok, err := st.Get(key)
	if err != nil {
		var ce *store.CorruptError
		if errors.As(err, &ce) {
			s.metrics.Inc("store_corrupt_records", 1)
		}
		s.metrics.Inc("store_misses", 1)
		return nil
	}
	if !ok {
		s.metrics.Inc("store_misses", 1)
		return nil
	}
	s.metrics.Inc("store_hits", 1)
	e, err := s.rehydrate(rec, trc)
	if err != nil {
		s.metrics.Inc("store_rehydrate_errors", 1)
		return nil
	}
	s.metrics.Inc("rehydrates", 1)
	return e
}

// rehydrate revives a persisted record into a live cache entry. The
// record's Ψ is the allocation: the blocks are materialized from
// (canonical nest, strategy, Ψ) by the same function a compile uses,
// verified exhaustively and counted against the record, so a wrong Ψ is
// an error (and a full compile), never a wrong plan. Nothing is analysed,
// selected or generated — this is not a compile and is not counted as
// one — and the wire plan stays bytes (see cacheEntry.typed).
func (s *Service) rehydrate(rec *store.Record, trc *obs.Trace) (*cacheEntry, error) {
	rsp := trc.Start(0, "rehydrate")
	defer rsp.End()
	if rec.Label == "" {
		return nil, fmt.Errorf("service: record %q carries no label to revive under", rec.Key)
	}
	strat, ok := partition.Named(rec.Strategy)
	if !ok {
		return nil, fmt.Errorf("service: record %q: unknown strategy %q", rec.Key, rec.Strategy)
	}
	sp := trc.Start(rsp.ID(), "parse")
	cn, err := lang.Parse(rec.CanonicalSource)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("service: record %q canonical source does not parse: %w", rec.Key, err)
	}
	for _, row := range rec.PsiBasis {
		if len(row) != cn.Depth() {
			return nil, fmt.Errorf("service: record %q Ψ vector %v is not of depth %d", rec.Key, row, cn.Depth())
		}
	}
	if err := cn.Admit(s.cfg.MaxIterations); err != nil {
		return nil, err
	}
	sp = trc.Start(rsp.ID(), "index")
	ix, err := loop.NewIndex(cn)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = trc.Start(rsp.ID(), "partition")
	res, err := partition.Materialize(ix, strat, space.Span(cn.Depth(), rec.PsiBasis...), nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = trc.Start(rsp.ID(), "verify")
	err = res.Verify()
	if err == nil && res.Iter.NumBlocks() != rec.Blocks {
		err = fmt.Errorf("service: record %q revives to %d blocks, recorded %d", rec.Key, res.Iter.NumBlocks(), rec.Blocks)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return newRevived(rec, newCompiled(cn, res, rec.Processors)), nil
}

// WarmStart eagerly rehydrates every stored plan into the cache, so a
// restarted node serves its whole pre-restart working set as memory
// hits from the first request. Returns how many plans were revived;
// records that fail to revive are skipped (they recompile on demand).
func (s *Service) WarmStart(ctx context.Context) (int, error) {
	st := s.store()
	if st == nil {
		return 0, nil
	}
	n := 0
	for _, key := range st.Keys() {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if _, ok := s.cache.peek(key); ok {
			continue
		}
		rec, ok, err := st.Get(key)
		if err != nil || !ok {
			continue
		}
		trc := obs.New("warm_start")
		e, err := s.rehydrate(rec, trc)
		s.traces.Add(trc)
		if err != nil {
			s.metrics.Inc("store_rehydrate_errors", 1)
			continue
		}
		s.metrics.Inc("rehydrates", 1)
		s.cacheAdd(e)
		n++
	}
	return n, nil
}

// ImportRecord accepts a plan record from a peer (cluster rebalance
// migration): it lands in the store — created in memory on demand —
// and revives lazily on first request for its key. The record arrives as
// JSON with no checksum, so its plan is decoded here, once, and held to
// the record's own fields; what the store then serves is as trustworthy
// as a CRC-checked file.
func (s *Service) ImportRecord(rec *store.Record) error {
	if rec == nil {
		return fmt.Errorf("service: nil record")
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	if _, err := decodePlan(rec); err != nil {
		return err
	}
	// A torn import is counted and not an error: it keeps the migration
	// moving.
	return s.storePut(s.ensureStore(), rec, "store_imports")
}

// ExportRecords snapshots every plan record this node holds — cached
// entries plus store-resident records — deduplicated by key and sorted,
// for cluster rebalance migration.
func (s *Service) ExportRecords() []*store.Record {
	seen := map[string]*store.Record{}
	for _, e := range s.cache.entries() {
		if e.rec != nil {
			seen[e.key] = e.rec
		}
	}
	if st := s.store(); st != nil {
		for _, key := range st.Keys() {
			if _, ok := seen[key]; ok {
				continue
			}
			if rec, ok, err := st.Get(key); ok && err == nil {
				seen[key] = rec
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*store.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out
}

// PlanCount reports how many distinct plans the node holds (cache ∪
// store) — the convergence signal operators watch during a rebalance. It
// counts keys and reads no record.
func (s *Service) PlanCount() int {
	st := s.store()
	n := 0
	if st != nil {
		n = len(st.Keys())
	}
	for _, e := range s.cache.entries() {
		if e.rec != nil && (st == nil || !st.Has(e.key)) {
			n++
		}
	}
	return n
}
