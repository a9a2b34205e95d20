package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"commfree/internal/chaos"
	"commfree/internal/lang"
)

// membershipCorpus synthesizes distinct valid sources spread over the
// keyspace.
func membershipCorpus(n int) []string {
	var out []string
	for k := 0; len(out) < n && k < 4096; k++ {
		src := fmt.Sprintf("for i = 1 to 4\n A[i] = A[i] + %d\nend", k)
		if _, err := lang.Parse(src); err == nil {
			out = append(out, src)
		}
	}
	return out
}

func keyOf(t *testing.T, src string) uint64 {
	t.Helper()
	nest, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return KeyHash(lang.Canonical(nest))
}

// compileVia POSTs a compile through the named node and returns the
// plan JSON (routing decides where it actually runs).
func compileVia(t *testing.T, fleet *Local, via, src string) string {
	t.Helper()
	res, body := postJSON(t, fleet.Client(), "http://"+via+"/v1/compile",
		map[string]any{"source": src, "processors": 4})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("compile via %s: status %d: %s", via, res.StatusCode, body)
	}
	var doc struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	return string(doc.Plan)
}

func totalCounter(fleet *Local, name string) int64 {
	var n int64
	for _, s := range fleet.Services {
		n += s.Metrics().Counter(name)
	}
	return n
}

// TestJoinMigratesExactlyMovedKeys is the epoch contract: growing the
// fleet moves exactly the ring-computed key set, the moved plans are
// pushed to their new homes, and re-requests are served bit-identically
// with zero new compiles.
func TestJoinMigratesExactlyMovedKeys(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	corpus := membershipCorpus(12)
	want := map[string]string{}
	var keys []uint64
	for i, src := range corpus {
		want[src] = compileVia(t, fleet, fleet.Names[i%3], src)
		keys = append(keys, keyOf(t, src))
	}
	if got := totalCounter(fleet, "compiles"); got != int64(len(corpus)) {
		t.Fatalf("fleet ran %d compiles for %d sources", got, len(corpus))
	}

	oldRing := NewRing(fleet.Names)
	if _, err := fleet.Join("n0", testBase()); err != nil {
		t.Fatal(err)
	}
	newRing := NewRing(fleet.Names)
	moved := MovedKeys(oldRing, newRing, keys)
	if len(moved) == 0 {
		t.Skip("degenerate: no corpus key moved on this join")
	}

	// Every node is on the new epoch.
	for _, n := range fleet.Nodes {
		if n.Epoch() != 1 {
			t.Fatalf("%s epoch = %d, want 1", n.Self(), n.Epoch())
		}
		if got := len(n.Ring().peers); got != 4 {
			t.Fatalf("%s ring has %d members, want 4", n.Self(), got)
		}
	}

	// Exactly the moved keys were migrated: each moved key's record was
	// pushed once.
	if in := totalCounter(fleet, "cluster_migrations_in"); in != int64(len(moved)) {
		t.Fatalf("migrations_in = %d, want %d (the ring-computed moved set)", in, len(moved))
	}
	if out := totalCounter(fleet, "cluster_migrations_out"); out != int64(len(moved)) {
		t.Fatalf("migrations_out = %d, want %d", out, len(moved))
	}

	// Re-request everything: bit-identical plans, no recompilation.
	compilesBefore := totalCounter(fleet, "compiles")
	for i, src := range corpus {
		got := compileVia(t, fleet, fleet.Names[i%len(fleet.Names)], src)
		if got != want[src] {
			t.Fatalf("plan for %q drifted across the epoch", src)
		}
	}
	if got := totalCounter(fleet, "compiles"); got != compilesBefore {
		t.Fatalf("re-requests after join recompiled (%d → %d)", compilesBefore, got)
	}
	// Non-vacuity: the moved plans were actually served by rehydration
	// at their new homes, not from some stale cache.
	if reh := totalCounter(fleet, "rehydrates"); reh < int64(len(moved)) {
		t.Fatalf("rehydrates = %d, want >= %d moved plans", reh, len(moved))
	}
}

// TestLeaveMigratesPlansOut: the leaver pushes every plan with a new
// home before going quiet; the fleet serves the corpus with no
// recompiles.
func TestLeaveMigratesPlansOut(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Home a few sources on n1, the node that will leave.
	var corpus []string
	want := map[string]string{}
	for i := 0; i < 3; i++ {
		src := sourceHomedOn(t, fleet, "n1")
		dup := false
		for _, s := range corpus {
			if s == src {
				dup = true
			}
		}
		if dup {
			continue
		}
		corpus = append(corpus, src)
		want[src] = compileVia(t, fleet, "n1", src)
	}
	held := svcOf(t, fleet, "n1").PlanCount()
	if held == 0 {
		t.Fatal("n1 holds no plans before leaving")
	}

	doc, err := fleet.Leave("n0", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Applied || doc.Epoch != 1 {
		t.Fatalf("leave doc = %+v", doc)
	}
	for _, n := range fleet.Nodes {
		if n.Self() == "n1" {
			continue
		}
		if n.Epoch() != 1 || len(n.Ring().peers) != 2 {
			t.Fatalf("%s did not adopt the leave epoch: epoch=%d ring=%d", n.Self(), n.Epoch(), len(n.Ring().peers))
		}
	}
	if in := totalCounter(fleet, "cluster_migrations_in"); in < int64(len(corpus)) {
		t.Fatalf("migrations_in = %d, want >= %d (n1's plans)", in, len(corpus))
	}

	compilesBefore := totalCounter(fleet, "compiles")
	for _, src := range corpus {
		if got := compileVia(t, fleet, "n0", src); got != want[src] {
			t.Fatalf("plan for %q drifted after the leave", src)
		}
	}
	if got := totalCounter(fleet, "compiles"); got != compilesBefore {
		t.Fatalf("leave forced recompiles (%d → %d)", compilesBefore, got)
	}
}

// TestMembershipSyncMonotone: stale and duplicate syncs are refused;
// only strictly newer epochs apply.
func TestMembershipSyncMonotone(t *testing.T) {
	fleet, err := NewLocal(2, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	if _, err := fleet.Join("n0", testBase()); err != nil {
		t.Fatal(err)
	}
	n0 := fleet.Nodes[0]
	if n0.Epoch() != 1 {
		t.Fatalf("epoch after join = %d", n0.Epoch())
	}
	members := n0.Members()

	// Duplicate sync (same epoch): not applied, state unchanged.
	doc, err := fleet.membershipOp("n0", MembershipUpdate{Op: "sync", Epoch: 1, Members: members})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Applied {
		t.Error("duplicate sync reported applied")
	}
	// Stale sync (epoch 0 shape): refused too.
	doc, err = fleet.membershipOp("n0", MembershipUpdate{Op: "sync", Epoch: 1, Members: members[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Applied || len(n0.Members()) != len(members) {
		t.Error("stale sync mutated membership")
	}
	// Idempotent join: same peer, same URL → no new epoch.
	last := members[len(members)-1]
	doc, err = fleet.membershipOp("n0", MembershipUpdate{Op: "join", Peer: &last})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Applied || doc.Epoch != 1 {
		t.Errorf("idempotent join bumped the epoch: %+v", doc)
	}
	// Leave of a non-member: idempotent no-op.
	doc, err = fleet.membershipOp("n0", MembershipUpdate{Op: "leave", Peer: &Peer{Name: "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Applied {
		t.Error("leave of a non-member applied")
	}
}

// TestStatusReportsEpochAndPlanCounts is the operator satellite: the
// status document shows the membership epoch and per-peer plan counts
// converging after a rebalance.
func TestStatusReportsEpochAndPlanCounts(t *testing.T) {
	fleet, err := NewLocal(3, testBase())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for i, src := range membershipCorpus(6) {
		compileVia(t, fleet, fleet.Names[i%3], src)
	}
	if _, err := fleet.Join("n0", testBase()); err != nil {
		t.Fatal(err)
	}

	// Counting plans reads no record: the stores' Gets stay where they are
	// through the status request and the per-peer counts behind it.
	storeGets := func() (n int64) {
		for _, svc := range fleet.Services {
			if st := svc.StoreStats(); st != nil {
				n += st.Gets
			}
		}
		return n
	}
	getsBefore := storeGets()
	res, err := fleet.Client().Get("http://n0/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st Status
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if got := storeGets(); got != getsBefore {
		t.Errorf("the status request read %d records from the stores", got-getsBefore)
	}
	if st.Epoch != 1 {
		t.Errorf("status epoch = %d, want 1", st.Epoch)
	}
	if len(st.Peers) != 4 {
		t.Fatalf("status lists %d peers, want 4", len(st.Peers))
	}
	totalPlans := 0
	for _, p := range st.Peers {
		if p.Plans < 0 {
			t.Errorf("peer %s plan count unavailable", p.Name)
		}
		if p.Epoch != 1 {
			t.Errorf("peer %s reports epoch %d, want 1", p.Name, p.Epoch)
		}
		totalPlans += p.Plans
	}
	if totalPlans < 6 {
		t.Errorf("status counts %d plans fleet-wide, want >= 6", totalPlans)
	}
}

// TestMigrationDropRecompiles: a seeded schedule that drops every
// migration send must degrade to recompile-on-demand at the new home —
// same plans, more compiles, zero failures.
func TestMigrationDropRecompiles(t *testing.T) {
	dropAll := func(c *Config) {
		c.Seed = 99
		c.Chaos = chaos.Config{MigrationDropProb: 1}
	}
	fleet, err := NewLocal(3, testBase(), WithNodeConfig(dropAll))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	corpus := membershipCorpus(10)
	want := map[string]string{}
	var keys []uint64
	for i, src := range corpus {
		want[src] = compileVia(t, fleet, fleet.Names[i%3], src)
		keys = append(keys, keyOf(t, src))
	}
	oldRing := NewRing(fleet.Names)
	if _, err := fleet.Join("n0", testBase(), WithNodeConfig(dropAll)); err != nil {
		t.Fatal(err)
	}
	moved := MovedKeys(oldRing, NewRing(fleet.Names), keys)
	if len(moved) == 0 {
		t.Skip("degenerate: no corpus key moved on this join")
	}
	if drops := totalCounter(fleet, "cluster_migration_drops"); drops != int64(len(moved)) {
		t.Fatalf("migration_drops = %d, want %d", drops, len(moved))
	}
	if in := totalCounter(fleet, "cluster_migrations_in"); in != 0 {
		t.Fatalf("migrations_in = %d under a drop-everything schedule", in)
	}

	compilesBefore := totalCounter(fleet, "compiles")
	for i, src := range corpus {
		if got := compileVia(t, fleet, fleet.Names[i%len(fleet.Names)], src); got != want[src] {
			t.Fatalf("plan for %q drifted after dropped migration", src)
		}
	}
	gained := totalCounter(fleet, "compiles") - compilesBefore
	if gained != int64(len(moved)) {
		t.Fatalf("recompiles = %d, want exactly the %d dropped plans", gained, len(moved))
	}
}
