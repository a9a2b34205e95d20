package service

// Key derivation, once per distinct source text. Every request needs
// the canonical rendering of its nest — the plan-cache key on the node
// that serves it, and (hashed) the routing key on the node it entered —
// and deriving it is a parse, a normalization pass and a render. The
// memo maps the raw source, byte for byte, to that result, so a repeated
// spelling costs one map lookup on each node it touches. It holds
// derived text only: a compile still parses its source (a store hit
// revives from the record and needs neither), so what gets compiled
// never depends on the memo.

import (
	"errors"
	"sync"

	"commfree/internal/lang"
	"commfree/internal/normalize"
	"commfree/internal/store"
)

// SourceKey is what a source text derives to.
type SourceKey struct {
	// Canonical is lang.Canonical of the normalized nest.
	Canonical string
	// Hash is FNV-1a 64 of Canonical: the cluster routing key.
	Hash uint64
	// Normalized reports that the normalization pass rewrote the nest.
	Normalized bool
}

// The memo's bounds: keyMemoFactor × CacheEntries sources (several
// spellings per cached plan) and keyMemoBytes of source + canonical
// text, whichever binds first.
const (
	keyMemoFactor = 4
	keyMemoBytes  = 8 << 20
)

// keyMemo is the bounded raw-source → SourceKey map. Lookups take the
// read lock only; a full memo evicts arbitrary entries (map order),
// which is as good as LRU for derived data that costs ≈ 30 µs to redo.
type keyMemo struct {
	maxEntries int
	maxBytes   int

	mu    sync.RWMutex
	items map[string]SourceKey
	bytes int
}

func newKeyMemo(cacheEntries int) *keyMemo {
	return &keyMemo{
		maxEntries: keyMemoFactor * cacheEntries,
		maxBytes:   keyMemoBytes,
		items:      map[string]SourceKey{},
	}
}

func (m *keyMemo) get(src string) (SourceKey, bool) {
	m.mu.RLock()
	k, ok := m.items[src]
	m.mu.RUnlock()
	return k, ok
}

func memoCost(src string, k SourceKey) int { return len(src) + len(k.Canonical) }

func (m *keyMemo) add(src string, k SourceKey) {
	cost := memoCost(src, k)
	if cost > m.maxBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[src]; ok {
		return
	}
	for old, was := range m.items {
		if len(m.items) < m.maxEntries && m.bytes+cost <= m.maxBytes {
			break
		}
		delete(m.items, old)
		m.bytes -= memoCost(old, was)
	}
	m.items[src] = k
	m.bytes += cost
}

// parseSource is the service's one call site of the front end: parse,
// normalize, and map failures to their request errors (400 for source
// that does not parse, the ClassifyError itself — 422 — for a
// well-formed nest the pass provably cannot normalize).
func (s *Service) parseSource(src string) (*normalize.Result, error) {
	s.metrics.Inc("source_parses", 1)
	nres, err := normalize.Source(src)
	if err != nil {
		var classify *normalize.ClassifyError
		if errors.As(err, &classify) {
			return nil, err
		}
		return nil, &BadRequestError{Err: err}
	}
	return nres, nil
}

// deriveKey returns the source's key: from the memo (memo is true) or
// from the front end. Errors are never memoized: the diagnostic is cheap
// to recompute and the source may be edited next.
func (s *Service) deriveKey(src string) (k SourceKey, memo bool, err error) {
	if k, ok := s.keys.get(src); ok {
		return k, true, nil
	}
	nres, err := s.parseSource(src)
	if err != nil {
		return SourceKey{}, false, err
	}
	k.Canonical = lang.Canonical(nres.Nest)
	k.Hash = store.KeyHash(k.Canonical)
	k.Normalized = !nres.Identity
	s.keys.add(src, k)
	return k, false, nil
}

// SourceKey derives (or recalls) the canonical text and routing hash of
// a source; the cluster router keys on it so the node that serves the
// request does not derive them again.
func (s *Service) SourceKey(src string) (SourceKey, error) {
	k, _, err := s.deriveKey(src)
	return k, err
}
