package conformance

// Membership dimension of the conformance suite: a membership epoch
// must be invisible to clients. Growing or shrinking the fleet changes
// WHERE plans live — exactly the ring-computed moved key set, pushed as
// records old-home → new-home — but never WHAT any request returns:
//
//   - after a join, migrations-in across the fleet equals the number of
//     records whose ring home moved (accounting is exact, so a
//     rebalance provably touches nothing else);
//   - re-requesting the whole corpus returns documents bit-identical to
//     the single-node reference with the fleet-wide compile counter
//     flat — migrated plans are rehydrated, never recompiled — and the
//     rehydrate counter proves the moved plans really took that path;
//   - a departing node pushes every plan it holds to the survivors
//     before going quiet, with the same flat-compile guarantee;
//   - under a seeded migration-drop schedule the dropped records
//     recompile on demand at their new homes: degraded, never wrong,
//     and zero requests lost mid-epoch.

import (
	"context"
	"fmt"

	"commfree/internal/chaos"
	"commfree/internal/cluster"
	"commfree/internal/lang"
	"commfree/internal/service"
)

// CheckMembership runs the membership dimension: an n-node fleet
// absorbs a join (and, when the schedule is clean, a leave), and every
// epoch must preserve bit-identical answers against a single-node
// reference, on the engine's corpus (see clusterCorpus). seed != 0
// arms the seed-pure migration-drop schedule.
func CheckMembership(nodes int, engine string, seed int64) error {
	base := service.Config{
		Workers:    4,
		QueueDepth: 64,
	}
	ref := service.New(base)
	defer ref.Close()

	var opts []cluster.LocalOption
	if seed != 0 {
		opts = append(opts, cluster.WithNodeConfig(func(c *cluster.Config) {
			c.Seed = seed
			// Only the migration fault is armed: crashed peers and
			// dropped heartbeats are the crash dimension's property.
			c.Chaos = chaos.Config{MigrationDropProb: 0.5}
		}))
	}
	fleet, err := cluster.NewLocal(nodes, base, opts...)
	if err != nil {
		return fmt.Errorf("conformance: membership: %w", err)
	}
	defer fleet.Close()

	corpus := clusterCorpus(engine)
	if len(corpus) == 0 {
		return fmt.Errorf("conformance: membership corpus is empty")
	}
	keys := make([]uint64, len(corpus))
	for ci, src := range corpus {
		nest, err := lang.Parse(src)
		if err != nil {
			return fmt.Errorf("conformance: membership: corpus[%d] does not parse: %w", ci, err)
		}
		keys[ci] = cluster.KeyHash(lang.Canonical(nest))
	}

	m := &membershipRun{ref: ref, fleet: fleet, corpus: corpus, docs: map[restartKey]execDoc{}}

	// Epoch 0: populate the fleet and record the reference documents.
	if err := m.sweep("initial"); err != nil {
		return err
	}
	compiles0 := m.total("compiles")
	if compiles0 == 0 {
		return fmt.Errorf("conformance: membership: initial sweep compiled nothing")
	}

	// Epoch 1: join. Exactly the ring-computed moved records migrate
	// (or, under the seeded schedule, are dropped — and counted).
	oldRing := cluster.NewRing(fleet.Names)
	if _, err := fleet.Join(fleet.Names[0], base, opts...); err != nil {
		return fmt.Errorf("conformance: membership: join: %w", err)
	}
	moved := cluster.MovedKeys(oldRing, cluster.NewRing(fleet.Names), keys)
	if len(moved) == 0 {
		return fmt.Errorf("conformance: membership: join moved no corpus key — widen the corpus")
	}
	for i, n := range fleet.Nodes {
		if n.Epoch() != 1 {
			return fmt.Errorf("conformance: membership: %s is on epoch %d after the join (want 1)", fleet.Names[i], n.Epoch())
		}
	}
	wantMoved := int64(len(moved) * len(strategyNames))
	in := m.total("cluster_migrations_in")
	drops := m.total("cluster_migration_drops")
	if in+drops != wantMoved {
		return fmt.Errorf("conformance: membership: join migrated %d + dropped %d records, want exactly %d (the ring-computed moved set)",
			in, drops, wantMoved)
	}
	if seed != 0 && drops == 0 {
		return fmt.Errorf("conformance: membership: seed %d dropped no migration — schedule is vacuous, pick another seed", seed)
	}

	// Re-sweep: bit-identical, and only dropped records may recompile.
	if err := m.sweep("post-join"); err != nil {
		return err
	}
	if gained := m.total("compiles") - compiles0; gained != drops {
		return fmt.Errorf("conformance: membership: post-join sweep recompiled %d plans, want exactly the %d dropped in migration", gained, drops)
	}
	if reh := m.total("rehydrates"); reh < in {
		return fmt.Errorf("conformance: membership: %d rehydrates < %d migrated records — moved plans were not served from their records", reh, in)
	}

	if seed != 0 {
		// The leave's exact accounting assumes every owner holds its
		// records, which dropped migrations deliberately violate.
		return nil
	}

	// Epoch 2: leave. The departing node pushes everything it holds.
	compiles1 := m.total("compiles")
	leaver := fleet.Names[1]
	held := int64(svcOfFleet(fleet, leaver).PlanCount())
	if held == 0 {
		return fmt.Errorf("conformance: membership: %s holds no plans before leaving", leaver)
	}
	inBefore := m.total("cluster_migrations_in")
	doc, err := fleet.Leave(fleet.Names[0], leaver)
	if err != nil {
		return fmt.Errorf("conformance: membership: leave: %w", err)
	}
	if !doc.Applied || doc.Epoch != 2 {
		return fmt.Errorf("conformance: membership: leave answered epoch %d applied=%v (want 2, true)", doc.Epoch, doc.Applied)
	}
	if pushed := m.total("cluster_migrations_in") - inBefore; pushed != held {
		return fmt.Errorf("conformance: membership: leave migrated %d records, want the leaver's full %d", pushed, held)
	}
	if err := m.sweep("post-leave"); err != nil {
		return err
	}
	if gained := m.total("compiles") - compiles1; gained != 0 {
		return fmt.Errorf("conformance: membership: post-leave sweep recompiled %d plans (want 0)", gained)
	}
	return nil
}

// membershipRun carries one CheckMembership's moving parts.
type membershipRun struct {
	ref    *service.Service
	fleet  *cluster.Local
	corpus []string
	docs   map[restartKey]execDoc
	entry  int
}

// sweep executes the corpus × strategies through rotating live entry
// nodes; the first sweep records reference documents (validated against
// the single-node reference), later sweeps must match them exactly.
func (m *membershipRun) sweep(label string) error {
	client := m.fleet.Client()
	for ci, src := range m.corpus {
		for _, strat := range strategyNames {
			k := restartKey{ci, strat}
			req := service.ExecuteRequest{CompileRequest: service.CompileRequest{
				Source: src, Strategy: strat, Processors: clusterProcs,
			}}
			m.entry = (m.entry + 1) % len(m.fleet.Names)
			got, servedBy, err := postExecute(client, m.fleet.URL(m.entry), req).served()
			if err != nil {
				return fmt.Errorf("conformance: membership: %s sweep lost corpus[%d] %s via %s: %w",
					label, ci, strat, m.fleet.Names[m.entry], err)
			}
			d := docOf(got)
			want, seen := m.docs[k]
			if !seen {
				refRes, err := m.ref.Execute(context.Background(), req)
				if err != nil {
					return fmt.Errorf("conformance: membership: reference execute corpus[%d] %s: %w", ci, strat, err)
				}
				if rd := docOf(refRes); d != rd {
					return fmt.Errorf("conformance: membership: corpus[%d] %s: fleet (via %s) diverges from single node:\n single: %+v\n fleet:  %+v",
						ci, strat, servedBy, rd, d)
				}
				if err := checkEngine("membership", ci, src, strat, d.Engine); err != nil {
					return err
				}
				m.docs[k] = d
				continue
			}
			if d != want {
				return fmt.Errorf("conformance: membership: corpus[%d] %s drifted on the %s sweep (via %s):\n before: %+v\n after:  %+v",
					ci, strat, label, servedBy, want, d)
			}
		}
	}
	return nil
}

// total sums one counter across the fleet.
func (m *membershipRun) total(name string) int64 {
	var n int64
	for _, s := range m.fleet.Services {
		n += s.Metrics().Counter(name)
	}
	return n
}

// svcOfFleet returns the named node's service.
func svcOfFleet(fleet *cluster.Local, name string) *service.Service {
	for i, n := range fleet.Names {
		if n == name {
			return fleet.Services[i]
		}
	}
	return nil
}
