package cluster

// Dynamic membership: seed-pure epochs over the PR-5 static fleet.
//
// Membership is a versioned document — an epoch counter plus the sorted
// member list. An operator POSTs {op:"join"|"leave"} to ANY member;
// that node bumps the epoch, applies the new membership locally, and
// broadcasts {op:"sync"} to every node involved (old ∪ new members).
// Sync application is monotone: a node adopts a membership iff its
// epoch is strictly newer than the one it holds, so replayed or
// crossed broadcasts converge on the highest epoch with no
// coordination — the membership mirror of the ring's "every node
// computes the same placement locally".
//
// Applying an epoch does three things, in order:
//
//  1. swap the member set (URLs, names, detector peer list — health
//     state of retained peers survives, see Detector.SetPeers);
//  2. rebuild the routing ring over alive ∩ members;
//  3. migrate: compare the OLD full-membership ring against the NEW
//     one — crashes are routing's problem, not migration's — and for
//     every plan record this node owns whose home moved, push the
//     record to the new home over /v1/cluster/migrate. The receiver
//     imports it into its plan store and serves it by rehydration:
//     a rebalance moves exactly the ring-computed key set, and moved
//     plans are never recompiled.
//
// Requests keep flowing mid-epoch: a node that still routes by the old
// epoch forwards to the old home, which serves the (terminal-hop)
// request locally from its retained copy; a node on the new epoch
// forwards to the new home, which has the migrated record (or
// recompiles — pure, so still bit-identical). Either epoch's answer is
// correct, which is what "zero requests lost mid-epoch" rests on.
// A seeded chaos schedule can drop migration sends (MigrationDrop);
// the dropped plan recompiles on first demand at its new home —
// degradation, never a wrong answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"commfree/internal/store"
)

// maxMembershipBytes bounds a membership or migration request body.
const maxMembershipBytes = 32 << 20

// MembershipUpdate is the POST /v1/cluster/membership body.
type MembershipUpdate struct {
	// Op is "join" or "leave" (operator, Peer set) or "sync"
	// (node-to-node broadcast, Epoch+Members set).
	Op   string `json:"op"`
	Peer *Peer  `json:"peer,omitempty"`
	// Epoch and Members carry the full membership document on sync.
	Epoch   int64  `json:"epoch,omitempty"`
	Members []Peer `json:"members,omitempty"`
}

// MembershipDoc is the response: the membership this node now holds.
type MembershipDoc struct {
	Self    string `json:"self"`
	Epoch   int64  `json:"epoch"`
	Members []Peer `json:"members"`
	// Applied reports whether the update changed this node's membership
	// (idempotent re-sends and stale syncs answer false).
	Applied bool `json:"applied"`
	// Migrated counts plan records this node pushed to new homes while
	// applying the epoch.
	Migrated int `json:"migrated,omitempty"`
}

func sortPeers(ps []Peer) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
}

func writeMembershipErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (n *Node) membershipDoc(applied bool, migrated int) MembershipDoc {
	return MembershipDoc{
		Self:     n.cfg.Self,
		Epoch:    n.Epoch(),
		Members:  n.Members(),
		Applied:  applied,
		Migrated: migrated,
	}
}

// handleMembership is the join/leave/sync endpoint.
func (n *Node) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMembershipBytes))
	if err != nil {
		writeMembershipErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var up MembershipUpdate
	if err := json.Unmarshal(body, &up); err != nil {
		writeMembershipErr(w, http.StatusBadRequest, "parse body: %v", err)
		return
	}
	switch up.Op {
	case "join", "leave":
		n.handleAdminUpdate(w, up)
	case "sync":
		n.handleSync(w, up)
	default:
		writeMembershipErr(w, http.StatusBadRequest, "unknown op %q", up.Op)
	}
}

// handleAdminUpdate serves an operator join/leave: compute the next
// membership, bump the epoch, apply locally, broadcast sync.
func (n *Node) handleAdminUpdate(w http.ResponseWriter, up MembershipUpdate) {
	if up.Peer == nil || up.Peer.Name == "" {
		writeMembershipErr(w, http.StatusBadRequest, "%s requires a peer name", up.Op)
		return
	}
	if up.Op == "join" && up.Peer.URL == "" {
		writeMembershipErr(w, http.StatusBadRequest, "join requires a peer URL")
		return
	}

	n.memberMu.Lock()
	cur := append([]Peer(nil), n.members...)
	epoch := n.epoch
	n.memberMu.Unlock()

	next, changed := nextMembership(cur, up)
	if !changed {
		// Idempotent: the peer is already in (or already out). Answer
		// the current document without a new epoch.
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(n.membershipDoc(false, 0))
		return
	}
	newEpoch := epoch + 1
	migrated, _ := n.applyMembership(newEpoch, next)
	n.svc.Metrics().Inc("cluster_membership_"+up.Op+"s", 1)
	// Broadcast to everyone involved: the union covers both the joiner
	// (who must learn the full membership) and the leaver (who must
	// learn it is out).
	n.broadcastSync(newEpoch, next, unionPeers(cur, next))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(n.membershipDoc(true, migrated))
}

// nextMembership computes the member list after the admin op; changed
// is false when the op is a no-op (already joined with the same URL,
// already absent).
func nextMembership(cur []Peer, up MembershipUpdate) (next []Peer, changed bool) {
	switch up.Op {
	case "join":
		url := strings.TrimSuffix(up.Peer.URL, "/")
		for _, p := range cur {
			if p.Name == up.Peer.Name {
				if p.URL == url {
					return cur, false
				}
				// Re-join under a new URL: replace in place.
				next = append([]Peer(nil), cur...)
				for i := range next {
					if next[i].Name == up.Peer.Name {
						next[i].URL = url
					}
				}
				sortPeers(next)
				return next, true
			}
		}
		next = append(append([]Peer(nil), cur...), Peer{Name: up.Peer.Name, URL: url})
		sortPeers(next)
		return next, true
	case "leave":
		for _, p := range cur {
			if p.Name != up.Peer.Name {
				next = append(next, p)
			}
		}
		if len(next) == len(cur) {
			return cur, false
		}
		sortPeers(next)
		return next, true
	}
	return cur, false
}

// handleSync adopts a broadcast membership document iff it is strictly
// newer than the one this node holds. Never rebroadcasts (the admin
// node fans out once; monotone application makes duplicates harmless).
func (n *Node) handleSync(w http.ResponseWriter, up MembershipUpdate) {
	if up.Epoch <= 0 || len(up.Members) == 0 {
		writeMembershipErr(w, http.StatusBadRequest, "sync requires epoch and members")
		return
	}
	migrated, applied := n.applyMembership(up.Epoch, up.Members)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(n.membershipDoc(applied, migrated))
}

// applyMembership installs the epoch (iff newer), swaps the detector
// and ring to the new member set, and migrates the owned plans whose
// home moved. Returns the number of records pushed and whether the
// epoch actually applied (false for stale or duplicate epochs).
func (n *Node) applyMembership(epoch int64, members []Peer) (int, bool) {
	members = append([]Peer(nil), members...)
	sortPeers(members)

	n.memberMu.Lock()
	if epoch <= n.epoch {
		n.memberMu.Unlock()
		return 0, false
	}
	oldNames := append([]string(nil), n.names...)
	n.epoch = epoch
	n.members = members
	n.urls = make(map[string]string, len(members))
	n.names = n.names[:0]
	for _, p := range members {
		n.urls[p.Name] = strings.TrimSuffix(p.URL, "/")
		n.names = append(n.names, p.Name)
	}
	newNames := append([]string(nil), n.names...)
	n.memberMu.Unlock()

	for _, p := range newNames {
		n.registerPeerMetrics(p)
	}
	n.det.SetPeers(newNames)
	// Rebuild the routing ring over alive ∩ members immediately: the
	// epoch is live for routing before migration starts, and mid-epoch
	// forwards stay correct because the terminal hop serves locally.
	n.rebalance(n.det.Alive())
	n.svc.Metrics().Inc("cluster_membership_epochs", 1)

	if !contains(newNames, n.cfg.Self) {
		// This node just left: it keeps serving terminal hops while
		// stragglers drain, but owns nothing and migrates everything
		// that has a new home.
		return n.migrate(epoch, oldNames, newNames, true), true
	}
	return n.migrate(epoch, oldNames, newNames, false), true
}

func contains(names []string, s string) bool {
	for _, n := range names {
		if n == s {
			return true
		}
	}
	return false
}

func unionPeers(a, b []Peer) []Peer {
	seen := map[string]Peer{}
	for _, p := range a {
		seen[p.Name] = p
	}
	for _, p := range b {
		seen[p.Name] = p // new URL wins
	}
	out := make([]Peer, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sortPeers(out)
	return out
}

// migrate pushes every owned plan record whose home moved between the
// OLD and NEW full-membership rings to its new home. Full membership,
// not the alive set: a crashed peer is a routing event (bounded
// failover), not a rebalance — conflating them would shuffle plans on
// every transient partition. departing=true (this node left) migrates
// regardless of old ownership filtering by self, since a departed node
// owns nothing in the new ring by construction.
func (n *Node) migrate(epoch int64, oldNames, newNames []string, departing bool) int {
	oldRing := NewRing(oldNames, DefaultVNodes)
	newRing := NewRing(newNames, DefaultVNodes)
	m := n.svc.Metrics()
	migrated := 0
	for _, rec := range n.svc.ExportRecords() {
		key := KeyHash(rec.CanonicalSource)
		oldOwner, okOld := oldRing.Owner(key)
		newOwner, okNew := newRing.Owner(key)
		if !okNew || newOwner == n.cfg.Self {
			continue
		}
		if !departing && (!okOld || oldOwner != n.cfg.Self) {
			// Not ours to move: the old home pushes it (or it was a
			// replica-cached copy, which the new home recompiles from
			// its own store or source on demand).
			continue
		}
		if oldOwner == newOwner && !departing {
			continue
		}
		if n.sched != nil && n.sched.MigrationDrop(epoch, store.KeyHash(rec.Key)) {
			m.Inc("cluster_migration_drops", 1)
			continue
		}
		if err := n.sendMigration(newOwner, rec); err != nil {
			m.Inc("cluster_migration_errors", 1)
			continue
		}
		migrated++
	}
	if migrated > 0 {
		m.Inc("cluster_migrations_out", int64(migrated))
	}
	return migrated
}

// sendMigration POSTs one record to its new home.
func (n *Node) sendMigration(peer string, rec *store.Record) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.urlOf(peer)+"/v1/cluster/migrate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: migrate to %s: status %d", peer, res.StatusCode)
	}
	return nil
}

// handleMigrate accepts one plan record from a peer during a rebalance.
// Deliberately open to non-members: the sender of a leave epoch is, by
// definition, no longer in the membership when its records arrive.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMembershipBytes))
	if err != nil {
		writeMembershipErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var rec store.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		writeMembershipErr(w, http.StatusBadRequest, "parse record: %v", err)
		return
	}
	if err := n.svc.ImportRecord(&rec); err != nil {
		writeMembershipErr(w, http.StatusBadRequest, "import: %v", err)
		return
	}
	n.svc.Metrics().Inc("cluster_migrations_in", 1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]bool{"ok": true})
}

// broadcastSync fans the new membership document out to every involved
// peer (best effort: a node that misses the broadcast adopts the epoch
// from the next admin op's union, or keeps serving correctly on the old
// epoch until then).
func (n *Node) broadcastSync(epoch int64, members []Peer, targets []Peer) {
	doc, err := json.Marshal(MembershipUpdate{Op: "sync", Epoch: epoch, Members: members})
	if err != nil {
		return
	}
	for _, p := range targets {
		if p.Name == n.cfg.Self {
			continue
		}
		url := strings.TrimSuffix(p.URL, "/")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/cluster/membership", bytes.NewReader(doc))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		res, err := n.client.Do(req)
		cancel()
		if err != nil {
			n.svc.Metrics().Inc("cluster_sync_errors", 1)
			continue
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			n.svc.Metrics().Inc("cluster_sync_errors", 1)
		}
	}
}
