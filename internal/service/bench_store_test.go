package service

// Plan-store latency ladder: what a request costs at each level of the
// cache hierarchy. Feeds BENCH_store.json.
//
//	scripts/bench_store.sh append|gate

import (
	"context"
	"testing"
)

// BenchmarkStoreColdCompile is the full pipeline: selector over every
// alternative, partition, verify, transform, assign, codegen, plus the
// write-through Put. One fresh service per iteration so nothing is
// cached anywhere.
func BenchmarkStoreColdCompile(b *testing.B) {
	req := CompileRequest{Source: srcL1, Strategy: "auto", Processors: 16}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewWithStore(Config{StoreDir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Compile(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkStoreDiskWarm is the restart path: the record exists on
// disk, the memory cache is cold — read, CRC-check, revive the partition
// from the record's Ψ, decode the wire plan for the response. One fresh
// service per iteration over a pre-populated directory.
func BenchmarkStoreDiskWarm(b *testing.B) {
	dir := b.TempDir()
	req := CompileRequest{Source: srcL1, Strategy: "auto", Processors: 16}
	seed, err := NewWithStore(Config{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Compile(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	seed.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewWithStore(Config{StoreDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		resp, err := s.Compile(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("disk-warm request was not a store hit")
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.StopTimer()
	s, _ := NewWithStore(Config{StoreDir: dir})
	if s.Metrics().Counter("compiles") != 0 {
		b.Fatal("disk-warm path ran a full compile")
	}
	s.Close()
}

// BenchmarkStoreMemoryHit is the steady state: the LRU serves the live
// entry.
func BenchmarkStoreMemoryHit(b *testing.B) {
	s, err := NewWithStore(Config{StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	req := CompileRequest{Source: srcL1, Strategy: "auto", Processors: 16}
	if _, err := s.Compile(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Compile(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("memory hit missed")
		}
	}
}
