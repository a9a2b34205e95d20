package conformance

// Restart dimension of the conformance suite: a store-backed service
// must survive a restart observationally unchanged. The pipeline is a
// pure function of (canonical nest, strategy, processors), so a plan
// compiled before a restart and rehydrated from the plan store after it
// must be bit-identical — same plan document, same execution document —
// and the restarted node must reach that answer WITHOUT recompiling
// (proved by the compile counter, not assumed). A seeded torn-write
// schedule weakens durability, never correctness: every record the tear
// destroyed recompiles on demand to the same bits.

import (
	"context"
	"encoding/json"
	"fmt"

	"commfree/internal/chaos"
	"commfree/internal/service"
)

// restartKey identifies one (corpus entry, strategy) cell.
type restartKey struct {
	ci    int
	strat string
}

// restartBase is the service config of the restart dimension. seed != 0
// arms ONLY the persistence fault (torn writes): execution-path chaos
// is the chaos dimension's property, not this one's.
func restartBase(dir string, seed int64) service.Config {
	cfg := service.Config{
		Workers:    4,
		QueueDepth: 64,
		StoreDir:   dir,
	}
	if seed != 0 {
		cfg.ChaosSeed = seed
		cfg.Chaos = chaos.Config{TornWriteProb: 0.3}
	}
	return cfg
}

// CheckRestartWarm runs the restart dimension on the engine's corpus
// (see clusterCorpus): compile and execute it × the strategies against
// a store-backed service, close it, reopen the same directory, and
// demand
//
//   - bit-identical plan documents and execution documents, and
//   - zero compiles on the restarted service (everything rehydrates),
//     with store hits proving the store actually served them.
func CheckRestartWarm(engine, dir string) error {
	corpus := clusterCorpus(engine)
	if len(corpus) == 0 {
		return fmt.Errorf("conformance: restart corpus is empty")
	}
	cfg := restartBase(dir, 0)

	cold, err := service.NewWithStore(cfg)
	if err != nil {
		return fmt.Errorf("conformance: restart: open %s: %w", dir, err)
	}
	plans, docs, err := restartSweep(cold, corpus, nil, nil)
	cold.Close()
	if err != nil {
		return fmt.Errorf("conformance: restart: cold pass: %w", err)
	}

	reopened, err := service.NewWithStore(cfg)
	if err != nil {
		return fmt.Errorf("conformance: restart: reopen %s: %w", dir, err)
	}
	defer reopened.Close()
	if _, _, err := restartSweep(reopened, corpus, plans, docs); err != nil {
		return fmt.Errorf("conformance: restart: warm pass: %w", err)
	}

	if n := reopened.Metrics().Counter("compiles"); n != 0 {
		return fmt.Errorf("conformance: restart: restarted service recompiled %d plans (want 0)", n)
	}
	want := int64(len(corpus) * len(strategyNames))
	if n := reopened.Metrics().Counter("rehydrates"); n != want {
		return fmt.Errorf("conformance: restart: %d rehydrates on the restarted service (want %d)", n, want)
	}
	if st := reopened.StoreStats(); st == nil || st.Hits == 0 {
		return fmt.Errorf("conformance: restart: restarted service reports no store hits")
	}
	return nil
}

// CheckRestartTorn is the degraded variant, on both engines' corpora:
// the first pass persists under a seeded torn-write schedule, so some
// records land unreadable. The restarted service must still answer
// every request bit-identically — the torn records recompile (counted, and exactly as many as the
// schedule tore), the intact ones rehydrate.
func CheckRestartTorn(dir string, seed int64) error {
	corpus := clusterCorpus("")
	if len(corpus) == 0 {
		return fmt.Errorf("conformance: restart corpus is empty")
	}
	cfg := restartBase(dir, seed)

	cold, err := service.NewWithStore(cfg)
	if err != nil {
		return fmt.Errorf("conformance: restart-torn: open %s: %w", dir, err)
	}
	plans, docs, err := restartSweep(cold, corpus, nil, nil)
	torn := cold.Metrics().Counter("store_torn_writes")
	cold.Close()
	if err != nil {
		return fmt.Errorf("conformance: restart-torn: cold pass: %w", err)
	}
	if torn == 0 {
		return fmt.Errorf("conformance: restart-torn: seed %d tore no writes — schedule is vacuous, pick another seed", seed)
	}

	reopened, err := service.NewWithStore(cfg)
	if err != nil {
		return fmt.Errorf("conformance: restart-torn: reopen %s: %w", dir, err)
	}
	defer reopened.Close()
	if _, _, err := restartSweep(reopened, corpus, plans, docs); err != nil {
		return fmt.Errorf("conformance: restart-torn: warm pass: %w", err)
	}
	if n := reopened.Metrics().Counter("compiles"); n != torn {
		return fmt.Errorf("conformance: restart-torn: %d recompiles on restart, want exactly the %d torn records", n, torn)
	}
	return nil
}

// restartSweep runs one corpus × strategies sweep on an open service.
// With nil references it records plan and execution documents (the
// reference pass); with references it compares and fails on any drift.
func restartSweep(svc *service.Service, corpus []string, want map[restartKey]string, wantDocs map[restartKey]execDoc) (map[restartKey]string, map[restartKey]execDoc, error) {
	record := want == nil
	if record {
		want = map[restartKey]string{}
		wantDocs = map[restartKey]execDoc{}
	}
	ctx := context.Background()
	for ci, src := range corpus {
		for _, strat := range strategyNames {
			k := restartKey{ci, strat}
			req := service.CompileRequest{Source: src, Strategy: strat, Processors: clusterProcs}
			cres, err := svc.Compile(ctx, req)
			if err != nil {
				return nil, nil, fmt.Errorf("compile corpus[%d] %s: %w", ci, strat, err)
			}
			plan, err := json.Marshal(cres.Plan)
			if err != nil {
				return nil, nil, fmt.Errorf("marshal plan corpus[%d] %s: %w", ci, strat, err)
			}
			eres, err := svc.Execute(ctx, service.ExecuteRequest{CompileRequest: req})
			if err != nil {
				return nil, nil, fmt.Errorf("execute corpus[%d] %s: %w", ci, strat, err)
			}
			if record {
				if err := checkEngine("restart", ci, src, strat, eres.Engine); err != nil {
					return nil, nil, err
				}
				want[k] = string(plan)
				wantDocs[k] = docOf(eres)
				continue
			}
			if string(plan) != want[k] {
				return nil, nil, fmt.Errorf("corpus[%d] %s: plan drifted across restart", ci, strat)
			}
			if d := docOf(eres); d != wantDocs[k] {
				return nil, nil, fmt.Errorf("corpus[%d] %s: execution drifted across restart:\n before: %+v\n after:  %+v", ci, strat, wantDocs[k], d)
			}
		}
	}
	return want, wantDocs, nil
}
