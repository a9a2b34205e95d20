// Package store is the persistent, content-addressed plan store: the
// durable home of compiled allocation plans. The paper's pipeline is a
// pure function — a canonical nest deterministically yields its
// communication-free allocation — so a compiled plan is an immutable
// artifact addressed by the FNV-1a hash of its cache key, and the store
// is a write-once object store rather than a mutable database:
//
//   - one file per record under <dir>/objects/, named by the key hash
//     (collisions get a numeric suffix; the key inside the record is
//     authoritative);
//   - records are CRC-framed (record.go): torn writes, truncation, and
//     bit rot are detected on read and treated as a miss — the plan
//     recompiles from source, which is always correct;
//   - a write is one temp-then-rename (no fsync), so a process crash
//     mid-Put leaves either the old record or the new one, never a half
//     record; after power loss a record may be short or empty, which
//     its CRC detects;
//   - the objects directory is the only index: Open decodes every
//     record once into an in-memory key → file map, skipping (and
//     counting) unreadable ones, and Put and Delete touch exactly one
//     file.
//
// The service layers this under its in-memory LRU as a read-through
// tier: cache eviction demotes a plan to disk instead of discarding it,
// and a restarted node finds its whole compiled corpus warm. The
// cluster layer ships the same records between nodes when a membership
// epoch moves a key's home, so a rebalance migrates plans instead of
// recompiling them.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the plan-store contract shared by the file-backed
// implementation and the in-memory one (Mem). All methods are safe for
// concurrent use.
type Store interface {
	// Put persists the record (overwriting any previous record with the
	// same key).
	Put(r *Record) error
	// Get returns the record for the key. ok=false with a nil error is
	// a plain miss; a non-nil error means the record existed but could
	// not be read (corruption — also reported as a miss, ok=false).
	Get(key string) (rec *Record, ok bool, err error)
	// Has reports whether the key is present without reading the body.
	Has(key string) bool
	// Keys returns the stored keys, sorted.
	Keys() []string
	// Delete removes the record (absent keys are a no-op).
	Delete(key string) error
	// Stats snapshots the counters.
	Stats() Stats
	// Close releases the store.
	Close() error
}

// Stats is the observable state of a store.
type Stats struct {
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	Puts    int64 `json:"puts"`
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Deletes int64 `json:"deletes"`
	// CorruptSkipped counts records dropped for failing the frame
	// checks (at open-scan or read time).
	CorruptSkipped int64 `json:"corrupt_skipped"`
	// TornWrites counts writes the fault hook truncated (tests and
	// chaos schedules only).
	TornWrites int64 `json:"torn_writes"`
}

// Options tunes a FileStore.
type Options struct {
	// TornWrite is the deterministic fault hook (chaos schedules wire
	// Schedule.TornWrite here): given the write sequence number and the
	// encoded size, it returns how many bytes actually reach the file
	// and whether the write is torn. Nil means writes are whole.
	TornWrite func(seq int64, size int) (n int, torn bool)
}

// indexEntry locates one record.
type indexEntry struct {
	File  string
	Bytes int64
}

// TornWriteError is returned by Put when the fault hook tore the
// write: the record on disk is truncated, the next Get of its key fails
// the CRC and drops it, and the caller should treat the plan as not
// persisted.
type TornWriteError struct {
	Key  string
	File string
}

func (e *TornWriteError) Error() string {
	return fmt.Sprintf("store: torn write of %q (%s)", e.Key, e.File)
}

// FileStore is the disk-backed Store.
type FileStore struct {
	dir     string
	objects string
	opts    Options

	mu       sync.Mutex
	index    map[string]indexEntry // key → its record file
	files    map[string]struct{}   // the file names index holds, for fileFor
	writeSeq int64
	stats    Stats
}

// Open opens (creating if needed) the store rooted at dir and indexes
// it by decoding every record under objects/ — the in-file key is
// authoritative. Corrupt records are skipped and counted, never fatal,
// and stay on disk until a Put of their key overwrites them.
func Open(dir string, opts Options) (*FileStore, error) {
	s := &FileStore{
		dir:     dir,
		objects: filepath.Join(dir, "objects"),
		opts:    opts,
		index:   map[string]indexEntry{},
		files:   map[string]struct{}{},
	}
	if err := os.MkdirAll(s.objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// Binaries from before the directory was the index kept index.json
	// here and believed it over the directory: remove it, so that one of
	// them, rolled back to, scans instead of trusting a file this one
	// never updates.
	_ = os.Remove(filepath.Join(dir, "index.json"))
	entries, err := os.ReadDir(s.objects)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, recSuffix) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.objects, name))
		var rec *Record
		if err == nil {
			rec, err = Decode(name, data)
		}
		if err != nil {
			s.stats.CorruptSkipped++
			continue
		}
		s.setEntry(rec.Key, indexEntry{File: name, Bytes: int64(len(data))})
	}
	return s, nil
}

// setEntry points key at its record file. Called with s.mu held (or,
// in Open, before the store is shared).
func (s *FileStore) setEntry(key string, e indexEntry) {
	if old, had := s.index[key]; had {
		s.stats.Bytes -= old.Bytes
		delete(s.files, old.File)
	} else {
		s.stats.Records++
	}
	s.index[key] = e
	s.files[e.File] = struct{}{}
	s.stats.Bytes += e.Bytes
}

// dropEntryLocked forgets an indexed key. Called with s.mu held.
func (s *FileStore) dropEntryLocked(key string) {
	e := s.index[key]
	delete(s.index, key)
	delete(s.files, e.File)
	s.stats.Records--
	s.stats.Bytes -= e.Bytes
}

// atomicWrite writes data to path via a temp file and rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// recSuffix is the record file extension.
const recSuffix = ".rec"

// filenameFor renders the content address, disambiguating hash
// collisions with a numeric suffix chosen under the lock.
func filenameFor(hash uint64, n int) string {
	if n == 0 {
		return fmt.Sprintf("%016x%s", hash, recSuffix)
	}
	return fmt.Sprintf("%016x-%d%s", hash, n, recSuffix)
}

// fileFor picks the file name for a key: the existing index entry if
// the key is already stored, else the first free collision slot.
// Called with s.mu held.
func (s *FileStore) fileFor(key string) string {
	if e, ok := s.index[key]; ok {
		return e.File
	}
	h := KeyHash(key)
	for n := 0; ; n++ {
		name := filenameFor(h, n)
		if _, taken := s.files[name]; !taken {
			return name
		}
	}
}

// Put persists the record: one temp file renamed into objects/. A torn
// write (fault hook) leaves a CRC-detectably truncated file behind a
// live index entry — a record whose bytes did not all reach the disk —
// and returns *TornWriteError; the next Get self-heals by dropping the
// entry.
func (s *FileStore) Put(r *Record) error {
	data, err := Encode(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Puts++
	s.writeSeq++
	seq := s.writeSeq
	name := s.fileFor(r.Key)
	s.mu.Unlock()

	write := data
	torn := false
	if s.opts.TornWrite != nil {
		if n, t := s.opts.TornWrite(seq, len(data)); t {
			if n < 0 {
				n = 0
			}
			if n > len(data) {
				n = len(data)
			}
			write = data[:n]
			torn = true
		}
	}
	if err := atomicWrite(filepath.Join(s.objects, name), write); err != nil {
		return fmt.Errorf("store: put %q: %w", r.Key, err)
	}
	s.mu.Lock()
	s.setEntry(r.Key, indexEntry{File: name, Bytes: int64(len(write))})
	if torn {
		s.stats.TornWrites++
	}
	s.mu.Unlock()
	if torn {
		return &TornWriteError{Key: r.Key, File: name}
	}
	return nil
}

// Get reads and verifies the record. Corruption drops the entry from
// the index (self-heal) and reports (nil, false, *CorruptError).
func (s *FileStore) Get(key string) (*Record, bool, error) {
	s.mu.Lock()
	s.stats.Gets++
	e, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false, nil
	}
	data, err := os.ReadFile(filepath.Join(s.objects, e.File))
	var rec *Record
	if err == nil {
		rec, err = Decode(e.File, data)
	}
	if err == nil && rec.Key != key {
		err = corrupt(e.File, "record key %q does not match index key %q", rec.Key, key)
	}
	if err != nil {
		s.dropEntry(key, e.File)
		s.count(func(st *Stats) { st.Misses++; st.CorruptSkipped++ })
		return nil, false, err
	}
	s.count(func(st *Stats) { st.Hits++ })
	return rec, true, nil
}

// Has reports index presence (content is verified on Get).
func (s *FileStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Keys returns the indexed keys, sorted.
func (s *FileStore) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Delete removes the record and its index entry.
func (s *FileStore) Delete(key string) error {
	s.mu.Lock()
	e, ok := s.index[key]
	if ok {
		s.dropEntryLocked(key)
		s.stats.Deletes++
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	if err := os.Remove(filepath.Join(s.objects, e.File)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete %q: %w", key, err)
	}
	return nil
}

// dropEntry removes a corrupt record's index entry and file.
func (s *FileStore) dropEntry(key, file string) {
	s.mu.Lock()
	if e, ok := s.index[key]; ok && e.File == file {
		s.dropEntryLocked(key)
	}
	s.mu.Unlock()
	_ = os.Remove(filepath.Join(s.objects, file))
}

func (s *FileStore) count(fn func(*Stats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

// Stats snapshots the counters.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close has nothing to flush or release: every Put is already in its
// final place and the store holds no open files between operations.
func (s *FileStore) Close() error { return nil }
