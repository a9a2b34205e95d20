package service

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"commfree/internal/lang"
	"commfree/internal/normalize"
	"commfree/internal/obs"
	"commfree/internal/store"
)

// respell rewrites a program's text without changing its meaning —
// renamed loop indices, indentation, trailing blanks, comment lines —
// so one program yields many distinct memo keys.
func respell(src string, rnd *rand.Rand) string {
	suffix := string(rune('p' + rnd.Intn(8)))
	indices := map[string]bool{}
	words := strings.Fields(src)
	for i, w := range words {
		if w == "for" && i+1 < len(words) {
			indices[words[i+1]] = true
		}
	}
	var b strings.Builder
	for i := 0; i < len(src); {
		c := src[i]
		j := i + 1
		switch {
		case c >= '0' && c <= '9':
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			for j < len(src) && (src[j] == '_' || src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z' || src[j] >= '0' && src[j] <= '9') {
				j++
			}
		case c == '#' || c == '/' && j < len(src) && src[j] == '/':
			for j < len(src) && src[j] != '\n' { // comments pass through
				j++
			}
		}
		b.WriteString(src[i:j])
		if indices[src[i:j]] {
			b.WriteString(suffix)
		}
		i = j
	}
	var out strings.Builder
	fmt.Fprintf(&out, "# spelling %d\n", rnd.Intn(1<<20))
	for _, line := range strings.Split(b.String(), "\n") {
		out.WriteString(strings.Repeat(" ", rnd.Intn(4)))
		out.WriteString(line)
		out.WriteString(strings.Repeat(" ", rnd.Intn(3)))
		out.WriteString("\n")
	}
	return out.String()
}

// size reports the memo's entry count and text bytes.
func (m *keyMemo) size() (entries, bytes int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.items), m.bytes
}

// freshKey derives a source's key with no memo in the way.
func freshKey(src string) (SourceKey, error) {
	nres, err := normalize.Source(src)
	if err != nil {
		return SourceKey{}, err
	}
	canon := lang.Canonical(nres.Nest)
	return SourceKey{Canonical: canon, Hash: store.KeyHash(canon), Normalized: !nres.Identity}, nil
}

// TestSourceKeyMemoDifferential: over the corpus and seeded respellings
// of it, the key the memo answers — first and repeated ask — is the key
// a fresh derivation gives, respellings of one program agree on it, and
// a rejected source is rejected identically every time and never
// memoized.
func TestSourceKeyMemoDifferential(t *testing.T) {
	s := newTestService(t, Config{})
	rnd := rand.New(rand.NewSource(20260929))
	accepted := 0
	for ci, seed := range lang.Corpus() {
		spellings := []string{seed}
		for k := 0; k < 6; k++ {
			spellings = append(spellings, respell(seed, rnd))
		}
		want0, err0 := freshKey(seed)
		for si, src := range spellings {
			want, werr := freshKey(src)
			if (werr == nil) != (err0 == nil) {
				t.Fatalf("corpus %d spelling %d: respelling changed acceptance: %v vs %v\n%s", ci, si, werr, err0, src)
			}
			for ask := 0; ask < 2; ask++ {
				got, err := s.SourceKey(src)
				if werr != nil {
					if err == nil || err.Error() != werr.Error() {
						t.Fatalf("corpus %d spelling %d ask %d: err = %v, want %v", ci, si, ask, err, werr)
					}
					if statusFor(err) != 400 && statusFor(err) != 422 {
						t.Fatalf("corpus %d: rejection maps to %d", ci, statusFor(err))
					}
					if _, ok := s.keys.get(src); ok {
						t.Fatalf("corpus %d spelling %d: a rejected source was memoized", ci, si)
					}
					continue
				}
				if err != nil {
					t.Fatalf("corpus %d spelling %d ask %d: %v", ci, si, ask, err)
				}
				if got != want {
					t.Fatalf("corpus %d spelling %d ask %d: memo %+v, fresh %+v", ci, si, ask, got, want)
				}
				if got.Canonical != want0.Canonical {
					t.Fatalf("corpus %d spelling %d keys apart from its seed:\n%s\nvs\n%s", ci, si, got.Canonical, want0.Canonical)
				}
			}
		}
		if err0 == nil {
			accepted++
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d corpus programs were accepted; the differential is vacuous", accepted)
	}
}

// TestSourceKeyMemoBounds: ten times the capacity goes in, the memo
// stays within both caps and keeps answering.
func TestSourceKeyMemoBounds(t *testing.T) {
	m := newKeyMemo(4)
	if m.maxEntries != 4*keyMemoFactor || m.maxBytes != keyMemoBytes {
		t.Fatalf("caps = %d entries, %d bytes", m.maxEntries, m.maxBytes)
	}
	src := func(i int) string { return fmt.Sprintf("for i = 1 to 4\n A[i] = %d\nend", i) }
	for i := 0; i < 10*m.maxEntries; i++ {
		m.add(src(i), SourceKey{Canonical: src(i), Hash: uint64(i)})
		if n, _ := m.size(); n > m.maxEntries {
			t.Fatalf("after %d inserts the memo holds %d entries, cap %d", i+1, n, m.maxEntries)
		}
	}
	last := 10*m.maxEntries - 1
	if k, ok := m.get(src(last)); !ok || k.Hash != uint64(last) {
		t.Fatalf("the newest entry is gone: %+v %v", k, ok)
	}

	// The byte cap binds on its own: entries far below the entry cap.
	m = &keyMemo{maxEntries: 1 << 20, maxBytes: 4 << 10, items: map[string]SourceKey{}}
	big := strings.Repeat("#", 500)
	for i := 0; i < 100; i++ {
		m.add(fmt.Sprintf("%s%d", big, i), SourceKey{Canonical: big})
		if _, b := m.size(); b > m.maxBytes {
			t.Fatalf("after %d inserts the memo holds %d bytes, cap %d", i+1, b, m.maxBytes)
		}
	}
	if n, b := m.size(); n == 0 || n > 4 {
		t.Fatalf("byte-capped memo holds %d entries, %d bytes", n, b)
	}
	m.add(strings.Repeat("x", m.maxBytes+1), SourceKey{})
	if _, ok := m.get(strings.Repeat("x", m.maxBytes+1)); ok {
		t.Fatal("a source larger than the whole memo was memoized")
	}
}

// parseSpan returns the attributes of a trace's parse span.
func parseSpan(t *testing.T, trc *obs.Trace) map[string]int64 {
	t.Helper()
	for _, sp := range trc.Spans() {
		if sp.Name == "parse" {
			attrs := map[string]int64{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Int
			}
			return attrs
		}
	}
	t.Fatalf("trace %s has no parse span:\n%s", trc.ID(), trc.Tree())
	return nil
}

// TestSourceKeyMemoKeepsTheCounters: the memo changes how often the
// front end runs and nothing else — compiles, cache hits and misses and
// the parse span read as before, the span saying memo=1 on a hit.
func TestSourceKeyMemoKeepsTheCounters(t *testing.T) {
	s := newTestService(t, Config{})
	ctx := context.Background()
	counters := func() (compiles, parses, hits, misses int64) {
		cs := s.CacheStats()
		return s.Metrics().Counter("compiles"), s.Metrics().Counter("source_parses"), cs.Hits, cs.Misses
	}
	traceOf := func(id string) *obs.Trace {
		trc := s.Traces().Get(id)
		if trc == nil {
			t.Fatalf("trace %s not in the ring", id)
		}
		return trc
	}

	// Cold: one derivation, whose nest the compile reuses.
	r1, err := s.Compile(ctx, CompileRequest{Source: srcL1, Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c, p, h, m := counters(); c != 1 || p != 1 || h != 0 || m != 1 {
		t.Fatalf("cold compile: compiles %d parses %d hits %d misses %d", c, p, h, m)
	}
	if a := parseSpan(t, traceOf(r1.TraceID)); a["memo"] != 0 || a["bytes"] != int64(len(srcL1)) {
		t.Fatalf("cold parse span = %v", a)
	}

	// The same text again: memo hit, cache hit, no parse.
	r2, err := s.Execute(ctx, execReq(CompileRequest{Source: srcL1, Processors: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if c, p, h, m := counters(); c != 1 || p != 1 || h != 1 || m != 1 || !r2.Cached {
		t.Fatalf("repeat: compiles %d parses %d hits %d misses %d cached %v", c, p, h, m, r2.Cached)
	}
	if a := parseSpan(t, traceOf(r2.TraceID)); a["memo"] != 1 {
		t.Fatalf("repeat parse span = %v, want memo=1", a)
	}

	// Another spelling of the program: a new memo entry, the same plan.
	r3, err := s.Compile(ctx, CompileRequest{Source: srcL1Renamed, Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c, p, h, m := counters(); c != 1 || p != 2 || h != 2 || m != 1 || !r3.Cached {
		t.Fatalf("respelling: compiles %d parses %d hits %d misses %d cached %v", c, p, h, m, r3.Cached)
	}

	// A memoized text under a strategy nothing holds a plan for: the memo
	// answers the key, the miss parses for the nest, the pipeline runs.
	r4, err := s.Compile(ctx, CompileRequest{Source: srcL1, Strategy: "duplicate", Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c, p, h, m := counters(); c != 2 || p != 3 || h != 2 || m != 2 || r4.Cached {
		t.Fatalf("memo hit, cache miss: compiles %d parses %d hits %d misses %d cached %v", c, p, h, m, r4.Cached)
	}
	if a := parseSpan(t, traceOf(r4.TraceID)); a["memo"] != 1 {
		t.Fatalf("memo-hit cold compile parse span = %v, want memo=1", a)
	}
	if r4.Plan.CanonicalSource != r1.Plan.CanonicalSource {
		t.Fatal("the memo changed what was compiled")
	}

	// Rejections: same error every time, a parse every time.
	for _, bad := range []string{"for i = 1 to\n", "for i = 1 to 4\n A[n*i] = 1\nend"} {
		_, e1 := s.Compile(ctx, CompileRequest{Source: bad, Processors: 4})
		_, p1, _, _ := counters()
		_, e2 := s.Compile(ctx, CompileRequest{Source: bad, Processors: 4})
		_, p2, _, _ := counters()
		if e1 == nil || e2 == nil || e1.Error() != e2.Error() || statusFor(e1) != statusFor(e2) || p2 != p1+1 {
			t.Fatalf("rejected source %q: %v then %v, parses %d then %d", bad, e1, e2, p1, p2)
		}
	}
}
