package lang

import (
	"fmt"
	"sort"
	"strings"

	"commfree/internal/loop"
)

// SymTerm is one symbolic summand of an array subscript expression.
// Level == -1 means the term is a loop-invariant offset Coeff·Name;
// Level == k ≥ 0 means a symbolic stride Coeff·Name·i_k (a coefficient
// on a loop index that is not a compile-time constant).
type SymTerm struct {
	Name  string
	Coeff int64
	Level int
}

func (t SymTerm) String() string {
	if t.Level < 0 {
		return fmt.Sprintf("%d·%s", t.Coeff, t.Name)
	}
	return fmt.Sprintf("%d·%s·i%d", t.Coeff, t.Name, t.Level+1)
}

// RenderTerms formats one subscript row's symbolic terms for diagnostics.
func RenderTerms(terms []SymTerm) string {
	if len(terms) == 0 {
		return "0"
	}
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// RefSyms carries the symbolic part of one array reference: Rows is
// parallel to the reference's H rows / Offset entries, each holding the
// symbolic terms of that subscript (nil or empty when fully concrete).
type RefSyms struct {
	Rows [][]SymTerm
}

// Empty reports whether the reference has no symbolic terms at all.
func (r RefSyms) Empty() bool {
	for _, row := range r.Rows {
		if len(row) > 0 {
			return false
		}
	}
	return true
}

// StmtSyms pairs a statement's references with their symbolic parts, in
// the same order loop.Statement stores them (Write, then Reads by slot).
type StmtSyms struct {
	Write RefSyms
	Reads []RefSyms
}

// AffineNest is the result of an affine-mode parse: a structurally valid
// nest whose references need not be uniformly generated, plus the
// symbolic subscript terms the concrete loop.Ref matrices cannot hold.
// Syms is parallel to Nest.Body.
type AffineNest struct {
	Nest *loop.Nest
	Syms []StmtSyms
}

// HasSyms reports whether any reference carries symbolic terms.
func (a *AffineNest) HasSyms() bool {
	for _, st := range a.Syms {
		if !st.Write.Empty() {
			return true
		}
		for _, r := range st.Reads {
			if !r.Empty() {
				return true
			}
		}
	}
	return false
}

// SymNames returns the sorted set of symbolic constant names used.
func (a *AffineNest) SymNames() []string {
	seen := map[string]bool{}
	add := func(r RefSyms) {
		for _, row := range r.Rows {
			for _, t := range row {
				seen[t.Name] = true
			}
		}
	}
	for _, st := range a.Syms {
		add(st.Write)
		for _, r := range st.Reads {
			add(r)
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Bind substitutes concrete values for every symbolic constant and
// returns the resulting fully concrete nest (a deep copy; the receiver
// is unchanged). Offset terms add Coeff·vals[Name] to the subscript's
// constant; stride terms add Coeff·vals[Name] to the H entry of their
// loop level. Every referenced name must be present in vals.
func (a *AffineNest) Bind(vals map[string]int64) (*loop.Nest, error) {
	nest := a.Nest.Clone()
	bindRef := func(ref *loop.Ref, syms RefSyms) error {
		for r, row := range syms.Rows {
			for _, t := range row {
				v, ok := vals[t.Name]
				if !ok {
					return fmt.Errorf("lang: no value bound for symbolic constant %q", t.Name)
				}
				if t.Level < 0 {
					ref.Offset[r] += t.Coeff * v
				} else {
					ref.H[r][t.Level] += t.Coeff * v
				}
			}
		}
		return nil
	}
	for s, st := range nest.Body {
		if s >= len(a.Syms) {
			break
		}
		if err := bindRef(&st.Write, a.Syms[s].Write); err != nil {
			return nil, err
		}
		for i := range st.Reads {
			if i >= len(a.Syms[s].Reads) {
				break
			}
			if err := bindRef(&st.Reads[i], a.Syms[s].Reads[i]); err != nil {
				return nil, err
			}
		}
	}
	return nest, nil
}

// sortTerms orders symbolic terms deterministically: offset terms first,
// then stride terms by level, ties broken by name.
func sortTerms(terms []SymTerm) {
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].Level != terms[j].Level {
			return terms[i].Level < terms[j].Level
		}
		return terms[i].Name < terms[j].Name
	})
}
