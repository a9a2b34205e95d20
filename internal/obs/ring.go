package obs

// Ring is the bounded buffer of recent traces behind GET /v1/trace/{id}:
// the service appends every finished request trace, evicting the oldest
// once full, and serves lookups by trace ID.

import "sync"

// Ring holds the last N traces. Safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []*Trace // circular; buf[next] is the oldest once wrapped
	next int
	full bool
	byID map[string]*Trace
}

// NewRing builds a ring holding up to n traces (n <= 0 selects 256).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 256
	}
	return &Ring{buf: make([]*Trace, n), byID: make(map[string]*Trace, n)}
}

// Add appends a trace, evicting the oldest when the ring is full.
func (r *Ring) Add(t *Trace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	if old := r.buf[r.next]; old != nil {
		delete(r.byID, old.ID())
	}
	r.buf[r.next] = t
	r.byID[t.ID()] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Get returns the trace with the given ID, or nil if it has been
// evicted (or never existed).
func (r *Ring) Get(id string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Len reports the number of traces currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Recent returns up to n traces, newest first.
func (r *Ring) Recent(n int) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
