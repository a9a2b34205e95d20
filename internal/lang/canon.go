package lang

// Canonicalizer: render a nest in a canonical form so that
// α-equivalent programs — renamed loop indices, reordered/re-spaced
// source text, comment and whitespace variations — produce
// byte-identical output. The canonical form is itself valid DSL source
// that re-parses into a nest with the same reference structure and the
// same executable semantics, which makes it usable both as a cache key
// and as the program a compilation service actually compiles.
//
// Canonicalization renames the loop indices to i1..in (avoiding
// collisions with array names and statement labels) and re-renders
// every right-hand side from its parsed expression tree instead of the
// verbatim source text, so "A[ 2*i , j ]" and "A[2x,y]" (with renamed
// indices) converge to one spelling. Statement labels and statement
// order are semantic (they name and order the writes) and are
// preserved.

import (
	"fmt"

	"commfree/internal/loop"
)

// Canonical renders a nest in canonical form. Two nests that differ
// only by index renaming or source spelling yield identical strings.
func Canonical(nest *loop.Nest) string {
	names := canonicalNames(nest)
	cp := &loop.Nest{
		Levels: make([]loop.Level, len(nest.Levels)),
		Body:   make([]*loop.Statement, len(nest.Body)),
	}
	for k, lv := range nest.Levels {
		cp.Levels[k] = loop.Level{Name: names[k], Lower: lv.Lower, Upper: lv.Upper}
	}
	for i, st := range nest.Body {
		c := *st
		// Dropping the verbatim source forces Format through the
		// expression renderer, which spells the RHS canonically.
		c.SourceRHS = ""
		cp.Body[i] = &c
	}
	return Format(cp)
}

// CanonicalSource parses DSL source and returns its canonical
// rendering.
func CanonicalSource(src string) (string, error) {
	nest, err := Parse(src)
	if err != nil {
		return "", err
	}
	return Canonical(nest), nil
}

// canonicalNames returns the canonical index names i1..in, prefixing
// with "c" as many times as needed to dodge any array or label that
// already uses one of them.
func canonicalNames(nest *loop.Nest) []string {
	reserved := map[string]bool{}
	for _, a := range nest.Arrays() {
		reserved[a] = true
	}
	for _, st := range nest.Body {
		if st.Label != "" {
			reserved[st.Label] = true
		}
	}
	prefix := ""
	for {
		ok := true
		for k := range nest.Levels {
			if reserved[fmt.Sprintf("%si%d", prefix, k+1)] {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		prefix = "c" + prefix
	}
	names := make([]string, len(nest.Levels))
	for k := range nest.Levels {
		names[k] = fmt.Sprintf("%si%d", prefix, k+1)
	}
	return names
}
