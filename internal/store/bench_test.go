//go:build unix

package store

// The store's write path and its open scan against the number of records
// held. Feeds BENCH_store.json.
//
//	scripts/bench_store.sh append|gate

import (
	"encoding/json"
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// benchRecord is a record of the service's sizes: a 10 KB plan under a
// ~250 B key.
func benchRecord(i int) *Record {
	r := testRecord(fmt.Sprintf("s=duplicate|p=16|%0240d", i))
	r.Plan = json.RawMessage(`{"pad":"` + strings.Repeat("x", 10<<10) + `"}`)
	return r
}

// benchStore opens a store holding `records` benchRecords, their pages
// flushed: left dirty, the kernel writes them back underneath the timed
// section and every row measures that (2x to 20x, at random) instead.
func benchStore(b *testing.B, dir string, records int) *FileStore {
	b.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := s.Put(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	syscall.Sync()
	return s
}

// BenchmarkStorePut is one Put of a new key into a store that already
// holds `records` of them; the key is deleted again off the clock, so the
// population stays where the row says. A Put writes one file, so the rows
// must not differ by more than noise: scripts/bench_store.sh gate holds
// the 4096-record row (DefaultMemRecords, the scale the package names) to
// 3x the 64-record one.
func BenchmarkStorePut(b *testing.B) {
	for _, records := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			s := benchStore(b, b.TempDir(), records)
			fresh := benchRecord(records)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Put(fresh); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Delete(fresh.Key); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkStoreOpen is what having no index file costs, once per
// process: Open reads and decodes every record.
func BenchmarkStoreOpen(b *testing.B) {
	const records = 4096
	b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
		dir := b.TempDir()
		benchStore(b, dir, records)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Open(dir, Options{})
			if err != nil || len(s.index) != records {
				b.Fatalf("Open = %v with %d records", err, len(s.index))
			}
		}
	})
}
