// Package cluster is the sharded multi-node serving layer: N commfreed
// nodes form a static peer set, and requests are routed by consistent
// hashing over canonical-source hashes so each compiled plan has one
// home node (plus R−1 replicas) and the hot path needs no cross-node
// coordination — the request-level mirror of the paper's owner-computes
// data-to-processor mapping (Section IV): a plan lives where its cache
// entry lives, and every node can compute that placement locally.
//
// The package splits into:
//
//   - ring.go: the consistent-hash ring (virtual nodes, deterministic
//     total order, bounded-load candidate ordering);
//   - detector.go: a seed-pure failure detector — heartbeat rounds on a
//     simulated clock, with chaos-scheduled crashes and partitions;
//   - transport.go: an in-process http.RoundTripper mapping peer names
//     to handlers, so whole fleets run wire-free inside one test;
//   - node.go: the routing front end — forwarding, hedged requests,
//     trace grafting, rebalance accounting;
//   - local.go: an n-node in-process cluster harness.
package cluster

import (
	"sort"

	"commfree/internal/store"
)

// KeyHash maps a canonical source rendering onto the routing keyspace
// (FNV-1a 64). Routing is a pure function of (peer set, this hash):
// every node computes the same placement with no coordination.
func KeyHash(canonical string) uint64 { return store.KeyHash(canonical) }

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	peer  int32 // index into peers
	vnode int32
}

// Ring is a consistent-hash ring over a peer set with virtual nodes.
// Immutable after construction; routing state changes (membership) are
// expressed by building a new ring, so readers never lock.
type Ring struct {
	peers  []string
	points []point
}

// DefaultVNodes is the virtual-node count per peer of every node's ring
// (and what NewRing uses when the caller passes 0) — enough that the largest keyspace share stays within ~2×
// the mean for small fleets.
const DefaultVNodes = 64

// pointHash derives a virtual node's position. splitmix64-style
// avalanche over the peer-name hash and the vnode index, so peers with
// similar names do not clump.
func pointHash(peerHash uint64, vnode int) uint64 {
	h := peerHash ^ (uint64(vnode)+1)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NewRing builds a ring over the peers (deduped, sorted) with the given
// virtual-node count per peer (0 = DefaultVNodes).
func NewRing(peers []string, vnodes int) *Ring {
	return newRingHash(peers, vnodes, pointHash)
}

// newRingHash is NewRing with an injectable point-hash — tests use it
// to force every virtual node onto one position and check that the
// total order still routes deterministically.
func newRingHash(peers []string, vnodes int, hashFn func(peerHash uint64, vnode int) uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := map[string]bool{}
	var ps []string
	for _, p := range peers {
		if p != "" && !uniq[p] {
			uniq[p] = true
			ps = append(ps, p)
		}
	}
	sort.Strings(ps)
	r := &Ring{peers: ps}
	for i, p := range ps {
		ph := KeyHash(p)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashFn(ph, v), peer: int32(i), vnode: int32(v)})
		}
	}
	// Total order even under hash collisions: (hash, peer name, vnode).
	// Peer order is the sorted-name order, so the ring is independent of
	// the caller's peer-list order.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		return a.vnode < b.vnode
	})
	return r
}

// Owner returns the key's home peer — the first virtual node at or
// clockwise after the key. ok is false on an empty ring.
func (r *Ring) Owner(key uint64) (owner string, ok bool) {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return "", false
	}
	return reps[0], true
}

// Replicas returns the key's first n distinct peers walking clockwise
// from the key's position, home first. Fewer than n peers returns all
// of them (still home-first).
func (r *Ring) Replicas(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		pt := r.points[(start+i)%len(r.points)]
		if seen[pt.peer] {
			continue
		}
		seen[pt.peer] = true
		out = append(out, r.peers[pt.peer])
	}
	return out
}

// Route orders the key's n replicas for serving. Ownership stays a pure
// function of (peer set, key): the candidate *set* and its home-first
// base order come from Replicas alone. Two deterministic filters are
// then applied for dispatch:
//
//   - alive (nil = everyone): down peers are dropped — the caller
//     re-routes around a crashed home with no coordination;
//   - bounded load (load non-nil, bound > 0): candidates whose
//     in-flight load exceeds bound × (total/candidates) are stably
//     demoted behind under-bound ones, the "consistent hashing with
//     bounded loads" move applied at dispatch time rather than
//     placement time, so a hot home sheds to its replicas without
//     changing where any plan lives.
func (r *Ring) Route(key uint64, n int, alive func(string) bool, load func(string) int64, bound float64) []string {
	reps := r.Replicas(key, n)
	cands := reps[:0:0]
	for _, p := range reps {
		if alive == nil || alive(p) {
			cands = append(cands, p)
		}
	}
	if load == nil || bound <= 0 || len(cands) < 2 {
		return cands
	}
	var total int64
	for _, p := range cands {
		total += load(p)
	}
	if total == 0 {
		return cands
	}
	lim := bound * float64(total) / float64(len(cands))
	under := make([]string, 0, len(cands))
	var over []string
	for _, p := range cands {
		if float64(load(p)) <= lim {
			under = append(under, p)
		} else {
			over = append(over, p)
		}
	}
	return append(under, over...)
}

// MovedKeys returns the subset of keys whose home differs between the
// two rings — the exact migration set of a membership epoch. Both the
// migrating node and the conformance suite derive it from the rings
// alone, so "only the ring-computed key set moved" is checkable.
func MovedKeys(oldRing, newRing *Ring, keys []uint64) []uint64 {
	var moved []uint64
	for _, k := range keys {
		before, ok1 := oldRing.Owner(k)
		after, ok2 := newRing.Owner(k)
		if ok1 && ok2 && before != after {
			moved = append(moved, k)
		}
	}
	return moved
}
