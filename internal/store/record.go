package store

// Record framing. A plan record is a small JSON meta document — what a
// store hit needs to revive the plan: canonical source, strategy,
// resolved label, processors, the integer basis of Ψ, the block count —
// followed by the wire-form plan as opaque bytes, wrapped in a fixed
// binary envelope:
//
//	offset  size  field
//	0       4     magic "CFPS" (commfree plan store)
//	4       4     format version (little endian)
//	8       4     payload length in bytes (everything after the header)
//	12      4     CRC-32 (IEEE) of the payload
//	16      4     meta length m
//	20      m     meta (JSON: the Record without its Plan)
//	20+m    …     plan (JSON, verbatim; to the end of the payload)
//
// The envelope makes corruption detectable rather than survivable: a
// torn write, a truncated file, or a flipped bit fails the length or
// CRC check and the record is treated as absent — the plan recompiles
// from source, which is always correct because compilation is a pure
// function of the canonical nest. Decode never trusts a length field
// beyond the actual file size, so a corrupt header cannot force a large
// allocation, and it parses the meta only: the plan bytes are covered by
// the CRC and sliced, not scanned — whoever needs the typed plan decodes
// it, once.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// FormatVersion is the current record format. Readers accept only this
// version; unknown versions (version 1 framed the whole record as one
// JSON payload; version 2 plans predate the unimodular Section IV
// transform, whose Q revival would pair with their old program text;
// version 3 MARS plans report workloads the run does not execute) are
// treated as corrupt records (skip, then recompile) rather than errors,
// so a rollback after an upgrade leaves the store usable.
const FormatVersion = 4

// magic identifies a plan-store record file.
var magic = [4]byte{'C', 'F', 'P', 'S'}

// headerSize is the fixed envelope prefix length; the payload starts
// with the metaLenSize-byte meta length.
const (
	headerSize  = 16
	metaLenSize = 4
)

// maxPayloadBytes bounds one record's payload (plans carry generated
// SPMD source, so allow plenty; anything larger is corruption).
const maxPayloadBytes = 32 << 20

// Record is one persisted compilation: the content-addressed artifact
// of the pure pipeline. A store hit revives the live plan from
// CanonicalSource, Strategy, Processors and PsiBasis alone — the
// partition is a function of (nest, strategy, Ψ) — checks it against
// Blocks, and serves Label and Plan verbatim; no analysis, selection or
// codegen re-runs.
type Record struct {
	// Key is the cache key ("s=<strategy>|p=<procs>|<canonical>"); the
	// store verifies it on read so a hash collision cannot alias plans.
	Key string `json:"key"`
	// CanonicalSource is the α-normalized program the plan was compiled
	// from; KeyHash(CanonicalSource) is the cluster routing key.
	CanonicalSource string `json:"canonical_source"`
	// Strategy is the partition strategy the plan was compiled under: one
	// of the five wire names, or "selective". Duplicated names the arrays
	// a selective plan replicates; it records how Ψ was chosen, revival
	// reads PsiBasis and does not consult it.
	Strategy   string   `json:"strategy"`
	Duplicated []string `json:"duplicated,omitempty"`
	Processors int      `json:"processors"`
	// Label is the plan's resolved strategy label (Plan.Strategy, e.g.
	// "selective{B}" after "auto"), PsiBasis the integer basis of its Ψ,
	// one row per vector (empty for the zero space), and Blocks its
	// iteration-block count. A record without Label and Blocks (written
	// by a tool that only stores plans) does not revive; it recompiles.
	Label    string    `json:"label,omitempty"`
	PsiBasis [][]int64 `json:"psi_basis,omitempty"`
	Blocks   int       `json:"blocks,omitempty"`
	// Plan is the wire-form service plan (ranking, SPMD source, …),
	// carried verbatim.
	Plan json.RawMessage `json:"plan,omitempty"`
	// CreatedUnixNS stamps the original compilation.
	CreatedUnixNS int64 `json:"created_unix_ns,omitempty"`
}

// Validate checks the fields a reader depends on.
func (r *Record) Validate() error {
	if r.Key == "" {
		return fmt.Errorf("store: record has empty key")
	}
	if r.CanonicalSource == "" {
		return fmt.Errorf("store: record %q has empty canonical source", r.Key)
	}
	if len(r.Plan) == 0 {
		return fmt.Errorf("store: record %q has empty plan", r.Key)
	}
	return nil
}

// KeyHash is the content address of a record key: FNV-1a 64, rendered
// by filenameFor as the record's file name.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// Encode renders the record into its framed binary form.
func Encode(r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	head := *r
	head.Plan = nil
	meta, err := json.Marshal(&head)
	if err != nil {
		return nil, fmt.Errorf("store: encode %q: %w", r.Key, err)
	}
	n := metaLenSize + len(meta) + len(r.Plan)
	if n > maxPayloadBytes {
		return nil, fmt.Errorf("store: record %q payload %d bytes exceeds %d", r.Key, n, maxPayloadBytes)
	}
	buf := make([]byte, headerSize+metaLenSize, headerSize+n)
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], FormatVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(n))
	binary.LittleEndian.PutUint32(buf[headerSize:], uint32(len(meta)))
	buf = append(append(buf, meta...), r.Plan...)
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(buf[headerSize:]))
	return buf, nil
}

// CorruptError reports an unreadable record; callers treat it as a
// miss (skip + recompile), never as fatal.
type CorruptError struct {
	File   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt record %s: %s", e.File, e.Reason)
}

func corrupt(file, format string, args ...any) error {
	return &CorruptError{File: file, Reason: fmt.Sprintf(format, args...)}
}

// Decode parses a framed record, verifying magic, version, lengths, and
// CRC. The returned record's Plan aliases data. file names the source
// for error messages only.
func Decode(file string, data []byte) (*Record, error) {
	if len(data) < headerSize {
		return nil, corrupt(file, "truncated header (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != magic {
		return nil, corrupt(file, "bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, corrupt(file, "unsupported format version %d", v)
	}
	n := binary.LittleEndian.Uint32(data[8:12])
	if n > maxPayloadBytes {
		return nil, corrupt(file, "payload length %d exceeds cap", n)
	}
	if int64(len(data)) != int64(headerSize)+int64(n) {
		return nil, corrupt(file, "payload truncated: header says %d bytes, file has %d", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[12:16]); got != want {
		return nil, corrupt(file, "CRC mismatch (got %08x, want %08x)", got, want)
	}
	if len(payload) < metaLenSize {
		return nil, corrupt(file, "payload of %d bytes has no meta length", len(payload))
	}
	m := binary.LittleEndian.Uint32(payload)
	if int64(m) > int64(len(payload)-metaLenSize) {
		return nil, corrupt(file, "meta length %d exceeds the %d payload bytes after it", m, len(payload)-metaLenSize)
	}
	meta, plan := payload[metaLenSize:metaLenSize+m], payload[metaLenSize+m:]
	var r Record
	if err := json.Unmarshal(meta, &r); err != nil {
		return nil, corrupt(file, "meta does not parse: %v", err)
	}
	r.Plan = plan
	if err := r.Validate(); err != nil {
		return nil, corrupt(file, "invalid record: %v", err)
	}
	return &r, nil
}
