package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRingSingleNode(t *testing.T) {
	r := NewRing([]string{"solo"}, 0)
	for _, key := range []uint64{0, 1, ^uint64(0), 0x9e3779b97f4a7c15} {
		owner, ok := r.Owner(key)
		if !ok || owner != "solo" {
			t.Fatalf("Owner(%#x) = %q, %v; want solo", key, owner, ok)
		}
		if reps := r.Replicas(key, 3); len(reps) != 1 || reps[0] != "solo" {
			t.Fatalf("Replicas(%#x, 3) = %v; want [solo]", key, reps)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if _, ok := r.Owner(42); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if reps := r.Replicas(42, 2); reps != nil {
		t.Fatalf("empty ring returned replicas %v", reps)
	}
}

// TestRingAllVNodesColliding forces every virtual node of every peer
// onto a single ring position. The (hash, peer, vnode) total order must
// still yield a deterministic owner and distinct replica walks.
func TestRingAllVNodesColliding(t *testing.T) {
	peers := []string{"b", "a", "c"}
	collide := func(uint64, int) uint64 { return 0x42 }
	r := newRingHash(peers, 4, collide)
	owner, ok := r.Owner(7)
	if !ok {
		t.Fatal("colliding ring has no owner")
	}
	// Sorted-peer order breaks the tie: peer index 0 is "a".
	if owner != "a" {
		t.Fatalf("colliding ring owner = %q; want a (lowest sorted peer)", owner)
	}
	reps := r.Replicas(7, 3)
	if len(reps) != 3 {
		t.Fatalf("Replicas under collision = %v; want 3 distinct peers", reps)
	}
	seen := map[string]bool{}
	for _, p := range reps {
		if seen[p] {
			t.Fatalf("duplicate replica %q in %v", p, reps)
		}
		seen[p] = true
	}
	// And the same inputs re-derive the same answer (pure function).
	r2 := newRingHash([]string{"c", "a", "b"}, 4, collide)
	if o2, _ := r2.Owner(7); o2 != owner {
		t.Fatalf("peer-list order changed the owner: %q vs %q", o2, owner)
	}
}

// TestRingMembershipMoveProperty is the consistent-hashing contract:
// removing one peer moves ONLY the keys that peer owned — every key
// owned by a surviving peer keeps its owner. (This is the ≤ K/N bound
// in its sharpest form: the moved set is exactly the removed peer's
// share.)
func TestRingMembershipMoveProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(8377))
	for _, n := range []int{2, 3, 5, 8} {
		var peers []string
		for i := 0; i < n; i++ {
			peers = append(peers, fmt.Sprintf("n%d", i))
		}
		before := NewRing(peers, 0)
		removed := peers[rnd.Intn(n)]
		var rest []string
		for _, p := range peers {
			if p != removed {
				rest = append(rest, p)
			}
		}
		after := NewRing(rest, 0)

		const keys = 4096
		moved := 0
		for i := 0; i < keys; i++ {
			key := rnd.Uint64()
			was, _ := before.Owner(key)
			now, _ := after.Owner(key)
			if was != now {
				moved++
				if was != removed {
					t.Fatalf("n=%d: key %#x moved %s→%s although %s survived", n, key, was, now, was)
				}
			} else if was == removed {
				t.Fatalf("n=%d: key %#x still owned by removed peer %s", n, key, removed)
			}
		}
		// Statistical sanity: the moved share tracks 1/n (generous 3×
		// bound so the test is deterministic, not flaky).
		if lim := 3 * keys / n; moved > lim {
			t.Fatalf("n=%d: removing one peer moved %d/%d keys (> %d)", n, moved, keys, lim)
		}
	}
}

// keyspaceShares is each peer's owned fraction of the keyspace: the arcs
// of the hash circle that end at its virtual nodes.
func keyspaceShares(r *Ring) map[string]float64 {
	out := make(map[string]float64, len(r.peers))
	const span = float64(1<<63) * 2 // 2^64 as float
	for i, pt := range r.points {
		next := r.points[(i+1)%len(r.points)]
		arc := next.hash - pt.hash // wraps correctly in uint64
		out[r.peers[next.peer]] += float64(arc) / span
	}
	return out
}

func TestRingSharesRoughlyBalanced(t *testing.T) {
	peers := []string{"n0", "n1", "n2", "n3", "n4"}
	shares := keyspaceShares(NewRing(peers, 0))
	var total float64
	for _, p := range peers {
		s := shares[p]
		total += s
		if s < 0.05 || s > 0.45 {
			t.Fatalf("peer %s owns %.3f of the keyspace; want within [0.05, 0.45] of mean 0.2", p, s)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %.6f; want 1", total)
	}
}

func TestRouteAliveAndBoundedLoad(t *testing.T) {
	r := NewRing([]string{"n0", "n1", "n2"}, 0)
	key := uint64(12345)
	reps := r.Replicas(key, 3)

	// Alive filter drops the home; the next replica leads.
	down := reps[0]
	routed := r.Route(key, 3, func(p string) bool { return p != down }, nil, 0)
	if len(routed) != 2 || routed[0] != reps[1] {
		t.Fatalf("Route with %s down = %v; want %v leading", down, routed, reps[1])
	}

	// Bounded load demotes an overloaded home behind its replicas.
	load := func(p string) int64 {
		if p == reps[0] {
			return 100
		}
		return 1
	}
	routed = r.Route(key, 3, nil, load, 1.25)
	if routed[len(routed)-1] != reps[0] {
		t.Fatalf("Route with hot home = %v; want %s demoted to last", routed, reps[0])
	}
	// The candidate SET is unchanged — bounded load reorders dispatch,
	// never placement.
	if len(routed) != len(reps) {
		t.Fatalf("bounded load changed the candidate set: %v vs %v", routed, reps)
	}
}

// FuzzClusterRoute checks routing invariants for arbitrary keys, fleet
// sizes, replica counts, and alive masks: candidates are distinct ring
// members, respect the alive mask, and re-derive identically (routing
// is a pure function of its inputs).
func FuzzClusterRoute(f *testing.F) {
	f.Add(uint64(0), 3, 2, uint8(0xff))
	f.Add(uint64(1<<63), 5, 3, uint8(0b10101))
	f.Add(^uint64(0), 1, 1, uint8(1))
	f.Fuzz(func(t *testing.T, key uint64, n, replicas int, aliveMask uint8) {
		if n < 1 {
			n = 1
		}
		if n > 8 {
			n = n%8 + 1
		}
		if replicas < 1 {
			replicas = 1
		}
		if replicas > n {
			replicas = n
		}
		var peers []string
		for i := 0; i < n; i++ {
			peers = append(peers, fmt.Sprintf("n%d", i))
		}
		r := NewRing(peers, 16)
		alive := func(p string) bool {
			var i int
			fmt.Sscanf(p, "n%d", &i)
			return aliveMask&(1<<i) != 0
		}
		got := r.Route(key, replicas, alive, nil, 0)
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p] {
				t.Fatalf("duplicate candidate %q in %v", p, got)
			}
			seen[p] = true
			if !alive(p) {
				t.Fatalf("dead candidate %q in %v (mask %08b)", p, got, aliveMask)
			}
		}
		if len(got) > replicas {
			t.Fatalf("%d candidates for replicas=%d", len(got), replicas)
		}
		again := r.Route(key, replicas, alive, nil, 0)
		if fmt.Sprint(got) != fmt.Sprint(again) {
			t.Fatalf("routing not pure: %v then %v", got, again)
		}
		// Replicas ignores liveness and is home-first deterministic.
		reps := r.Replicas(key, replicas)
		if len(reps) != replicas {
			t.Fatalf("Replicas(%#x, %d) returned %d peers", key, replicas, len(reps))
		}
	})
}
