package service

// The plan's JSON, written by hand. A cold compile encodes its plan once,
// into the store record; the reflective encoder spent more on a large
// plan than codegen did, and a json.Marshaler on a subfield only adds
// encoding/json's re-compaction of what it returns. The output is
// byte-identical to json.Marshal's — planjson_test.go holds it to that
// over the corpus — so records are what they always were.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"commfree/internal/assign"
	"commfree/internal/partition"
	"commfree/internal/selector"
	"commfree/internal/transform"
)

// encodePlan returns the plan's JSON: json.Marshal's field order,
// omitempty, null for a nil slice or map, sorted map keys, float spelling
// and HTML escaping. A NaN or infinite float is an error,
// as it is to encoding/json. The buffer starts at a size estimate, and
// the bytes are copied out at their exact size when the estimate was
// far off: a record keeps them for as long as the plan is cached.
func encodePlan(p *Plan) ([]byte, error) {
	k := len(p.Transform.QBasis)
	size := 512 + len(p.CanonicalSource) + len(p.Transform.Program) + len(p.SPMDGo) +
		160*(len(p.Ranking)+len(p.Partition.Arrays)) + 8*len(p.Assignment.Workloads) + (24+6*k)*len(p.Assignment.Blocks)
	e := &jsonWriter{b: make([]byte, 0, size)}
	e.plan(p)
	if cap(e.b)-len(e.b) > len(e.b)/8 {
		e.b = slices.Clone(e.b)
	}
	return e.b, e.err
}

func (e *jsonWriter) plan(p *Plan) {
	e.raw(`{"canonical_source":`).str(p.CanonicalSource)
	e.raw(`,"strategy":`).str(p.Strategy)
	e.raw(`,"processors":`).integer(int64(p.Processors))
	e.raw(`,"partition":`).partition(&p.Partition)
	e.raw(`,"transform":`).transform(&p.Transform)
	e.raw(`,"assignment":`).assignment(&p.Assignment)
	if p.Predicted != nil {
		e.raw(`,"predicted":`).candidate(p.Predicted)
	}
	if len(p.Ranking) > 0 {
		e.raw(`,"ranking":`)
		array(e, p.Ranking, func(c selector.Candidate) { e.candidate(&c) })
	}
	e.raw(`,"spmd_go":`).str(p.SPMDGo)
	e.raw(`}`)
}

// jsonWriter appends JSON values to b; the first unencodable value sets
// err. raw appends JSON text as it is.
type jsonWriter struct {
	b   []byte
	err error
}

func (e *jsonWriter) raw(text string) *jsonWriter {
	e.b = append(e.b, text...)
	return e
}

func (e *jsonWriter) integer(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *jsonWriter) boolean(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float spells v as encoding/json does: shortest round-trip digits, in
// exponent form below 1e-6 or from 1e21 on, with a one-digit negative
// exponent unpadded.
func (e *jsonWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.err = cmp.Or(e.err, fmt.Errorf("service: plan holds the unencodable float %v", v))
		e.b = append(e.b, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, v, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str quotes s as json.Marshal does: '"' and '\\' escaped, control bytes
// as \b \f \n \r \t or \u00XX, '<', '>' and '&' as \u00XX, invalid UTF-8
// as \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func (e *jsonWriter) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(append(b, s[start:]...), '"')
}

// array writes v as a JSON array of each element, or null for a nil
// slice.
func array[T any](e *jsonWriter, v []T, each func(T)) {
	if v == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, x := range v {
		if i > 0 {
			e.raw(",")
		}
		each(x)
	}
	e.raw("]")
}

func (e *jsonWriter) ints(v []int64) { array(e, v, e.integer) }

func (e *jsonWriter) matrix(rows [][]int64) { array(e, rows, e.ints) }

func (e *jsonWriter) strs(v []string) { array(e, v, e.str) }

func (e *jsonWriter) partition(p *partition.Info) {
	e.raw(`{"strategy":`).str(p.Strategy)
	e.raw(`,"psi_basis":`).matrix(p.PsiBasis)
	e.raw(`,"psi_dim":`).integer(int64(p.PsiDim))
	e.raw(`,"parallelism_dim":`).integer(int64(p.ParallelismDim))
	e.raw(`,"num_blocks":`).integer(int64(p.NumBlocks))
	e.raw(`,"max_block_size":`).integer(int64(p.MaxBlockSize))
	if p.EliminatedIterations != 0 {
		e.raw(`,"eliminated_iterations":`).integer(int64(p.EliminatedIterations))
	}
	e.raw(`,"arrays":`)
	if p.Arrays == nil {
		e.raw("null}")
		return
	}
	e.raw("{")
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		a := p.Arrays[name]
		if i > 0 {
			e.raw(",")
		}
		e.str(name)
		e.raw(`:{"basis":`).matrix(a.Basis)
		e.raw(`,"duplicated":`).boolean(a.Duplicated)
		e.raw(`,"copy_factor":`).float(a.CopyFactor)
		e.raw(`,"blocks":`).integer(int64(a.Blocks))
		e.raw("}")
	}
	e.raw("}}")
}

func (e *jsonWriter) transform(t *transform.Info) {
	e.raw(`{"forall_levels":`).integer(int64(t.ForallLevels))
	e.raw(`,"sequential_levels":`).integer(int64(t.SequentialLevels))
	e.raw(`,"q_basis":`).matrix(t.QBasis)
	e.raw(`,"names":`).strs(t.Names)
	e.raw(`,"num_blocks":`).integer(int64(t.NumBlocks))
	e.raw(`,"program":`).str(t.Program)
	e.raw("}")
}

func (e *jsonWriter) assignment(a *assign.Info) {
	e.raw(`{"processors":`).integer(int64(a.Processors))
	e.raw(`,"grid_dims":`)
	array(e, a.GridDims, func(d int) { e.integer(int64(d)) })
	e.raw(`,"workloads":`).ints(a.Workloads)
	e.raw(`,"imbalance":`).float(a.Imbalance)
	e.raw(`,"blocks":`)
	array(e, a.Blocks, func(bo assign.BlockOwner) {
		e.raw(`{"forall":`).ints(bo.Forall)
		e.raw(`,"processor":`).integer(int64(bo.Processor))
		e.raw("}")
	})
	e.raw("}")
}

func (e *jsonWriter) candidate(c *selector.Candidate) {
	e.raw(`{"label":`).str(c.Label)
	e.raw(`,"strategy":`).str(c.Strategy.String())
	if len(c.Duplicated) > 0 {
		e.raw(`,"duplicated":`).strs(c.Duplicated)
	}
	e.raw(`,"blocks":`).integer(int64(c.Blocks))
	e.raw(`,"distribution_time_s":`).float(c.DistributionTime)
	e.raw(`,"compute_time_s":`).float(c.ComputeTime)
	e.raw(`,"total_s":`).float(c.Total)
	e.raw("}")
}
