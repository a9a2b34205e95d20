package lang

// Formatter: emit DSL source from a loop.Nest. Parsed nests round-trip
// exactly modulo whitespace (the RHS text is kept verbatim); statements
// without source text spell their expression tree (or the default
// 1 + Σ reads), which re-parses with equal meaning.

import (
	"fmt"
	"strings"

	"commfree/internal/loop"
)

// Format renders a nest as DSL source.
func Format(nest *loop.Nest) string {
	names := make([]string, nest.Depth())
	for k, lv := range nest.Levels {
		names[k] = lv.Name
	}
	var b strings.Builder
	indent := ""
	for _, lv := range nest.Levels {
		fmt.Fprintf(&b, "%sfor %s = %s to %s\n",
			indent, lv.Name, formatAffine(lv.Lower, names), formatAffine(lv.Upper, names))
		indent += "  "
	}
	for _, st := range nest.Body {
		label := ""
		if st.Label != "" {
			label = st.Label + ": "
		}
		rhs := st.SourceRHS
		if rhs == "" {
			reads := make([]string, len(st.Reads))
			for i, r := range st.Reads {
				reads[i] = FormatRef(r, names)
			}
			rhs = st.RenderRHS(reads, names)
		}
		fmt.Fprintf(&b, "%s%s%s = %s\n", indent, label, FormatRef(st.Write, names), rhs)
	}
	for k := nest.Depth() - 1; k >= 0; k-- {
		fmt.Fprintf(&b, "%send\n", strings.Repeat("  ", k))
	}
	return b.String()
}

// FormatAffineNest renders an AffineNest as affine DSL source, with
// symbolic terms spelled back into the subscripts (A[i + 2d]); the
// result re-parses under ParseAffine into an equivalent nest.
func FormatAffineNest(a *AffineNest) string {
	nest := a.Nest
	names := make([]string, nest.Depth())
	for k, lv := range nest.Levels {
		names[k] = lv.Name
	}
	var b strings.Builder
	indent := ""
	for _, lv := range nest.Levels {
		fmt.Fprintf(&b, "%sfor %s = %s to %s\n",
			indent, lv.Name, formatAffine(lv.Lower, names), formatAffine(lv.Upper, names))
		indent += "  "
	}
	symsAt := func(s int) StmtSyms {
		if s < len(a.Syms) {
			return a.Syms[s]
		}
		return StmtSyms{}
	}
	for s, st := range nest.Body {
		ss := symsAt(s)
		label := ""
		if st.Label != "" {
			label = st.Label + ": "
		}
		rhs := st.SourceRHS
		if rhs == "" {
			var reads []string
			for i, r := range st.Reads {
				var rsym RefSyms
				if i < len(ss.Reads) {
					rsym = ss.Reads[i]
				}
				reads = append(reads, formatRefSyms(r, rsym, names))
			}
			rhs = st.RenderRHS(reads, names)
		}
		fmt.Fprintf(&b, "%s%s%s = %s\n", indent, label, formatRefSyms(st.Write, ss.Write, names), rhs)
	}
	for k := nest.Depth() - 1; k >= 0; k-- {
		fmt.Fprintf(&b, "%send\n", strings.Repeat("  ", k))
	}
	return b.String()
}

// formatRefSyms renders a reference whose subscripts carry symbolic
// terms, e.g. "A[2i - 2 + 2d, j - 1]".
func formatRefSyms(r loop.Ref, syms RefSyms, names []string) string {
	subs := make([]string, len(r.H))
	for row := range r.H {
		s := formatAffine(loop.Affine{Coeffs: r.H[row], Const: r.Offset[row]}, names)
		if row < len(syms.Rows) {
			for _, t := range syms.Rows[row] {
				s += formatSymTerm(t, names)
			}
		}
		subs[row] = s
	}
	return r.Array + "[" + strings.Join(subs, ", ") + "]"
}

// formatSymTerm renders one symbolic term as a trailing summand.
func formatSymTerm(t SymTerm, names []string) string {
	c := t.Coeff
	sign := " + "
	if c < 0 {
		sign = " - "
		c = -c
	}
	body := t.Name
	if c != 1 {
		body = fmt.Sprintf("%d%s", c, t.Name)
	}
	if t.Level >= 0 {
		idx := fmt.Sprintf("i%d", t.Level+1)
		if t.Level < len(names) {
			idx = names[t.Level]
		}
		body += "*" + idx
	}
	return sign + body
}

// FormatRef renders an array reference with the nest's index names, e.g.
// "A[2i-2, j-1]".
func FormatRef(r loop.Ref, names []string) string {
	subs := make([]string, len(r.H))
	for row := range r.H {
		subs[row] = formatAffine(loop.Affine{Coeffs: r.H[row], Const: r.Offset[row]}, names)
	}
	return r.Array + "[" + strings.Join(subs, ", ") + "]"
}

// formatAffine renders an affine function with real index names.
func formatAffine(a loop.Affine, names []string) string {
	var parts []string
	for j, c := range a.Coeffs {
		name := fmt.Sprintf("i%d", j+1)
		if j < len(names) {
			name = names[j]
		}
		switch {
		case c == 0:
		case c == 1:
			parts = append(parts, name)
		case c == -1:
			parts = append(parts, "-"+name)
		default:
			parts = append(parts, fmt.Sprintf("%d%s", c, name))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			out += " - " + p[1:]
		} else {
			out += " + " + p
		}
	}
	return out
}
