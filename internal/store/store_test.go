package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testRecord(key string) *Record {
	return &Record{
		Key:             key,
		CanonicalSource: "for i = 1 to 4\n  S1: A[i] = A[i] + 1\nend\n",
		Strategy:        "non-duplicate",
		Processors:      4,
		Plan:            json.RawMessage(`{"strategy":"non-duplicate"}`),
		CreatedUnixNS:   12345,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := testRecord("s=non-duplicate|p=4|src")
	rec.Duplicated = []string{"B", "C"}
	rec.Label, rec.PsiBasis, rec.Blocks = "selective{B,C}", [][]int64{{1, 0}, {0, -2}}, 7
	data, err := Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode("test", data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, rec)
	}
	// The plan is framed verbatim after the meta, not embedded in it.
	if !bytes.HasSuffix(data, rec.Plan) || bytes.Count(data, rec.Plan) != 1 {
		t.Errorf("plan bytes are not the record's tail")
	}
}

// reframe rewrites the envelope of a payload: length, CRC and version.
func reframe(version uint32, payload []byte) []byte {
	buf := make([]byte, headerSize, headerSize+len(payload))
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], version)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// TestDecodeRejectsV1Framing: a file in the previous format — the whole
// record as one JSON payload, version 1 — is intact by its own CRC and
// still a corrupt record to this reader, so the plan recompiles.
func TestDecodeRejectsV1Framing(t *testing.T) {
	payload, err := json.Marshal(testRecord("k"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode("old.rec", reframe(1, payload))
	var ce *CorruptError
	if !asErr(err, &ce) || !strings.Contains(ce.Reason, "unsupported format version 1") {
		t.Fatalf("Decode of a v1 file: %v", err)
	}
	// Under the current version number the same bytes have no meta frame.
	if _, err := Decode("old.rec", reframe(FormatVersion, payload)); !asErr(err, &ce) {
		t.Fatalf("Decode of a v1 payload under version %d: %v", FormatVersion, err)
	}
}

// TestDecodeMetaLength: the meta length is trusted no further than the
// payload it sits in, whatever the CRC says.
func TestDecodeMetaLength(t *testing.T) {
	data, err := Encode(testRecord("k"))
	if err != nil {
		t.Fatal(err)
	}
	payload := data[headerSize:]
	for name, m := range map[string]uint32{
		"one past the payload": uint32(len(payload) - metaLenSize + 1),
		"maximal":              1<<32 - 1,
		"cuts the meta short":  binary.LittleEndian.Uint32(payload) - 1,
	} {
		bad := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(bad, m)
		_, err := Decode("test", reframe(FormatVersion, bad))
		var ce *CorruptError
		if !asErr(err, &ce) {
			t.Errorf("%s: Decode = %v, want a *CorruptError", name, err)
		}
	}
	if _, err := Decode("test", reframe(FormatVersion, payload[:2])); err == nil {
		t.Error("a payload shorter than the meta length field decoded")
	}
}

// FuzzDecode: any byte sequence either decodes or is a *CorruptError —
// never a panic — and what decodes is no larger than the file (the
// length fields are not trusted to size anything) and re-encodes to a
// file that decodes to the same record.
func FuzzDecode(f *testing.F) {
	rec := testRecord("k")
	rec.Label, rec.PsiBasis, rec.Blocks = "non-duplicate", [][]int64{{1, 1}}, 3
	good, err := Encode(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:headerSize])
	huge := append([]byte(nil), good[headerSize:]...)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	f.Add(reframe(FormatVersion, huge))
	v1, _ := json.Marshal(rec)
	f.Add(reframe(1, v1))
	f.Add(reframe(FormatVersion, v1))
	f.Add(reframe(FormatVersion, []byte("\x02\x00\x00\x00{}{}")))
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a file, and — few mutants keep their CRC — as the payload of
		// a well-framed one.
		for _, file := range [][]byte{data, reframe(FormatVersion, data)} {
			rec, err := Decode("fuzz", file)
			if err != nil {
				var ce *CorruptError
				if !asErr(err, &ce) {
					t.Fatalf("Decode error %v is not a *CorruptError", err)
				}
				continue
			}
			if len(rec.Plan) == 0 || len(rec.Plan)+len(rec.Key)+len(rec.CanonicalSource) > len(file) {
				t.Fatalf("decoded %d plan + %d key + %d source bytes from a %d-byte file", len(rec.Plan), len(rec.Key), len(rec.CanonicalSource), len(file))
			}
			again, err := Encode(rec)
			if err != nil {
				t.Fatalf("decoded record does not encode: %v", err)
			}
			back, err := Decode("fuzz", again)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if twice, err := Encode(back); err != nil || !bytes.Equal(twice, again) {
				t.Fatalf("re-encoding drifted (%v):\n got %q\nwant %q", err, twice, again)
			}
		}
	})
}

func TestRecordDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(testRecord("k"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":          func(b []byte) []byte { return nil },
		"short header":   func(b []byte) []byte { return b[:8] },
		"bad magic":      func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":    func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 99); return b },
		"truncated body": func(b []byte) []byte { return b[:len(b)-3] },
		"flipped bit":    func(b []byte) []byte { b[headerSize+2] ^= 0x40; return b },
		"huge length":    func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], maxPayloadBytes+1); return b },
	}
	for name, mutate := range cases {
		buf := append([]byte(nil), data...)
		if _, err := Decode("test", mutate(buf)); err == nil {
			t.Errorf("%s: Decode accepted a corrupt record", name)
		} else if _, ok := err.(*CorruptError); !ok {
			t.Errorf("%s: error %v is not a *CorruptError", name, err)
		}
	}
}

func TestFileStorePutGet(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := s.Put(testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		rec, ok, err := s.Get(k)
		if err != nil || !ok || rec.Key != k {
			t.Fatalf("Get(%q) = %v, %v, %v", k, rec, ok, err)
		}
		if !s.Has(k) {
			t.Fatalf("Has(%q) = false after Put", k)
		}
	}
	if _, ok, err := s.Get("absent"); ok || err != nil {
		t.Fatalf("Get(absent) = %v, %v; want miss", ok, err)
	}
	if got := s.Keys(); fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Fatalf("Keys() = %v, want %v", got, keys)
	}
	st := s.Stats()
	if st.Records != 3 || st.Hits != 3 || st.Misses != 1 || st.Puts != 3 {
		t.Fatalf("stats %+v", st)
	}

	// Overwrite keeps one record per key.
	if err := s.Put(testRecord("a")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 3 {
		t.Fatalf("after overwrite: %d records, want 3", st.Records)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if s.Has("a") {
		t.Fatal("Has(a) after Delete")
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal("double delete should be a no-op:", err)
	}
}

// TestFileStoreReopen proves persistence: a reopened store serves the
// same records.
func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Records != 5 || st.CorruptSkipped != 0 {
		t.Fatalf("reopen stats %+v; want 5 records, none skipped", st)
	}
	rec, ok, err := s2.Get("k3")
	if err != nil || !ok || rec.Key != "k3" {
		t.Fatalf("Get(k3) after reopen = %v, %v, %v", rec, ok, err)
	}
}

// sideState reads every entry of a store directory other than objects/:
// whatever a store keeps beside its records.
func sideState(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]byte{}
	for _, de := range entries {
		if de.Name() == "objects" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[de.Name()] = data
	}
	return state
}

// TestFileStoreRecordOutlivesSideState: a record renamed into objects/ is
// stored, whatever happens to anything written beside it — here the rest
// of the directory is rolled back to before the Put, as a crash between
// the record's rename and a second write would leave it.
func TestFileStoreRecordOutlivesSideState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("a")); err != nil {
		t.Fatal(err)
	}
	before := sideState(t, dir)
	if err := s.Put(testRecord("b")); err != nil {
		t.Fatal(err)
	}
	for name := range sideState(t, dir) {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range before {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Keys(); fmt.Sprint(got) != "[a b]" || !s2.Has("b") {
		t.Fatalf("after reopen Keys() = %v, Has(b) = %v; want both records", got, s2.Has("b"))
	}
}

// TestFileStoreDirectoryIsRecordsOnly: whatever the operation sequence, a
// store directory holds objects/ and objects/ holds record files — no
// index, no temp file left behind.
func TestFileStoreDirectoryIsRecordsOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, records int) {
		t.Helper()
		if side := sideState(t, dir); len(side) != 0 {
			t.Fatalf("after %s the store directory also holds %q", step, side)
		}
		entries, err := os.ReadDir(filepath.Join(dir, "objects"))
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			if !strings.HasSuffix(de.Name(), recSuffix) {
				t.Fatalf("after %s objects/ holds %s", step, de.Name())
			}
		}
		if len(entries) != records {
			t.Fatalf("after %s objects/ holds %d files, want %d", step, len(entries), records)
		}
	}
	check("Open", 0)
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	check("three Puts", 3)
	if err := s.Put(testRecord("k1")); err != nil {
		t.Fatal(err)
	}
	check("an overwrite", 3)
	if err := s.Delete("k0"); err != nil {
		t.Fatal(err)
	}
	check("a Delete", 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("Close", 2)
}

// TestFileStoreConcurrentPutsSurviveReopen: every Put that returned is on
// disk, whatever order concurrent writers finished in and with no Close
// (run under -race).
func TestFileStoreConcurrentPutsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := s.Put(testRecord(fmt.Sprintf("g%d-k%d", g, i))); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s2.Keys()); n != 128 {
		t.Fatalf("reopen found %d keys, want 128", n)
	}
}

// TestFileStoreOpensIndexedDirectory: a directory as the index-keeping
// binaries left it — records plus an index.json, whatever state that is
// in — opens with every intact record, and the index file is gone. The
// "omits a record" case is the lost index rewrite those binaries could
// not see: they verified the files the index listed and never noticed the
// ones it did not.
func TestFileStoreOpensIndexedDirectory(t *testing.T) {
	type entry struct {
		Key   string `json:"key"`
		File  string `json:"file"`
		Bytes int64  `json:"bytes"`
	}
	for name, damage := range map[string]func(listed []entry) []byte{
		"garbage": func([]entry) []byte { return []byte("{not json") },
		"stale": func(listed []entry) []byte {
			listed[0].Bytes += 7
			data, _ := json.Marshal(map[string]any{"version": 1, "records": listed})
			return data
		},
		"omits a record": func(listed []entry) []byte {
			data, _ := json.Marshal(map[string]any{"version": 1, "records": listed[:len(listed)-1]})
			return data
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
				t.Fatal(err)
			}
			var listed []entry
			for _, k := range []string{"k0", "k1", "k2"} {
				data, err := Encode(testRecord(k))
				if err != nil {
					t.Fatal(err)
				}
				file := filenameFor(KeyHash(k), 0)
				if err := os.WriteFile(filepath.Join(dir, "objects", file), data, 0o644); err != nil {
					t.Fatal(err)
				}
				listed = append(listed, entry{k, file, int64(len(data))})
			}
			if err := os.WriteFile(filepath.Join(dir, "index.json"), damage(listed), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Keys(); fmt.Sprint(got) != "[k0 k1 k2]" {
				t.Fatalf("Keys() = %v, want all three records", got)
			}
			for _, k := range s.Keys() {
				if rec, ok, err := s.Get(k); !ok || err != nil || rec.Key != k {
					t.Fatalf("Get(%s) = %v %v %v", k, rec, ok, err)
				}
			}
			if side := sideState(t, dir); len(side) != 0 {
				t.Fatalf("the opened directory still holds %q", side)
			}
		})
	}
}

// TestFileStoreCorruptRecordRecovery is the CI recovery scenario: a
// record file is truncated on disk; the open scan skips it (counted,
// not fatal) and every other record survives.
func TestFileStoreCorruptRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Truncate k1's record mid-payload.
	path := filepath.Join(dir, "objects", filenameFor(KeyHash("k1"), 0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// The open scan CRC-rejects the half record.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Records != 3 || st.CorruptSkipped != 1 {
		t.Fatalf("stats %+v; want 3 records, 1 corrupt skipped", st)
	}
	if s2.Has("k1") {
		t.Fatal("truncated record k1 survived the scan")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok, err := s2.Get(k); !ok || err != nil {
			t.Fatalf("intact record %s lost: %v %v", k, ok, err)
		}
	}
}

// TestFileStoreTornWrite drives the deterministic fault hook: a torn
// Put leaves a CRC-detectably truncated file behind a live index entry;
// the next Get self-heals (drops the entry, reports corruption), and
// the plan is simply absent — never wrong.
func TestFileStoreTornWrite(t *testing.T) {
	torn := map[int64]bool{2: true}
	s, err := Open(t.TempDir(), Options{
		TornWrite: func(seq int64, size int) (int, bool) {
			if torn[seq] {
				return size / 3, true
			}
			return size, false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testRecord("whole")); err != nil {
		t.Fatal(err)
	}
	err = s.Put(testRecord("torn"))
	var te *TornWriteError
	if !asErr(err, &te) {
		t.Fatalf("torn Put returned %v, want *TornWriteError", err)
	}
	if st := s.Stats(); st.TornWrites != 1 {
		t.Fatalf("stats %+v, want 1 torn write", st)
	}
	// The index (deliberately) still lists the torn record; reading it
	// detects the corruption and heals.
	if !s.Has("torn") {
		t.Fatal("torn record should still be indexed before the healing Get")
	}
	rec, ok, err := s.Get("torn")
	if ok || rec != nil {
		t.Fatalf("Get(torn) returned a record: %+v", rec)
	}
	var ce *CorruptError
	if !asErr(err, &ce) {
		t.Fatalf("Get(torn) error %v, want *CorruptError", err)
	}
	if s.Has("torn") {
		t.Fatal("corrupt entry not dropped after the healing Get")
	}
	if _, ok, err := s.Get("whole"); !ok || err != nil {
		t.Fatalf("whole record lost: %v %v", ok, err)
	}
}

// TestFileStoreHashCollision: a key whose natural slot is held by
// another key's record lands on a numeric suffix, and the in-file key
// disambiguates. The collision is staged on disk — a's record renamed to
// x's natural slot before the store opens — since the open scan takes the
// key from the record, not from the file name.
func TestFileStoreHashCollision(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("a")); err != nil {
		t.Fatal(err)
	}
	aFile := filenameFor(KeyHash("a"), 0)
	xFile := filenameFor(KeyHash("x"), 0)
	if err := os.Rename(filepath.Join(dir, "objects", aFile), filepath.Join(dir, "objects", xFile)); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := s.index["a"].File; got != xFile {
		t.Fatalf("a is indexed at %s, want %s", got, xFile)
	}

	if err := s.Put(testRecord("x")); err != nil {
		t.Fatal(err)
	}
	if got := s.index["x"].File; got != filenameFor(KeyHash("x"), 1) {
		t.Fatalf("colliding key landed on %s, want suffix slot", got)
	}
	ra, ok, _ := s.Get("a")
	rx, ok2, _ := s.Get("x")
	if !ok || !ok2 || ra.Key != "a" || rx.Key != "x" {
		t.Fatalf("collision aliased records: %v %v", ra, rx)
	}
	// A freed slot is free again: with a gone, a new x takes its natural one.
	for _, k := range []string{"a", "x"} {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testRecord("x")); err != nil || s.index["x"].File != xFile {
		t.Fatalf("Put(x) after the deletes = %v at %s, want %s", err, s.index["x"].File, xFile)
	}
}

// TestFileStoreConcurrent hammers one store from many goroutines (run
// under -race).
func TestFileStoreConcurrent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i%5)
				switch i % 3 {
				case 0:
					_ = s.Put(testRecord(key))
				case 1:
					_, _, _ = s.Get(key)
				default:
					_ = s.Has(key)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if rec, ok, err := s.Get(key); ok && (err != nil || rec.Key != key) {
			t.Fatalf("Get(%q) inconsistent: %v %v", key, rec, err)
		}
	}
}

func TestMemStore(t *testing.T) {
	m := NewMem(3)
	for i := 0; i < 5; i++ {
		if err := m.Put(testRecord(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Records != 3 {
		t.Fatalf("bound not enforced: %+v", st)
	}
	// FIFO: oldest two dropped.
	for _, k := range []string{"k0", "k1"} {
		if m.Has(k) {
			t.Fatalf("%s survived the FIFO bound", k)
		}
	}
	if rec, ok, err := m.Get("k4"); !ok || err != nil || rec.Key != "k4" {
		t.Fatalf("Get(k4) = %v %v %v", rec, ok, err)
	}
	if err := m.Delete("k4"); err != nil || m.Has("k4") {
		t.Fatal("delete failed")
	}
}

// asErr is errors.As without importing errors twice in tests.
func asErr[T error](err error, target *T) bool {
	for err != nil {
		if t, ok := err.(T); ok {
			*target = t
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
