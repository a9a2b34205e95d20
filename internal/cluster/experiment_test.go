package cluster

import (
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"commfree/internal/service"
)

// TestHedgeLatencyExperiment is the harness behind the EXPERIMENTS.md
// "hedged forwarding" table: a 3-node fleet where each remote peer
// stalls a request with probability p (the slow-peer rate), measured
// with hedging off and with a 2ms hedge budget. Run with
//
//	HEDGE_EXPERIMENT=1 go test ./internal/cluster/ -run TestHedgeLatencyExperiment -v
//
// Wall-clock latencies are host-dependent; the experiment is gated so
// the regular suite stays timing-free.
func TestHedgeLatencyExperiment(t *testing.T) {
	if os.Getenv("HEDGE_EXPERIMENT") == "" {
		t.Skip("set HEDGE_EXPERIMENT=1 to run the hedge latency experiment")
	}
	const reqs = 400
	const slow = 20 * time.Millisecond

	for _, p := range []float64{0.05, 0.25, 0.50} {
		for _, budget := range []time.Duration{0, 2 * time.Millisecond} {
			fleet, err := NewLocal(3, testBase(),
				WithReplicas(3),
				WithHedgeAfter(budget))
			if err != nil {
				t.Fatal(err)
			}
			entry := fleet.Names[0]
			home := fleet.Names[1]
			src := sourceHomedOn(t, fleet, home)
			client := fleet.Client()

			// Warm every plan cache before the delay hook goes in.
			for i := range fleet.Names {
				res, _ := postJSON(t, client, fleet.URL(i)+"/v1/compile",
					service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4})
				if res.StatusCode != http.StatusOK {
					t.Fatalf("warmup via %s: status %d", fleet.Names[i], res.StatusCode)
				}
			}

			// Seeded slow-peer model: a request to a remote serving peer
			// (never the entry hop) stalls for `slow` with probability p.
			rnd := rand.New(rand.NewSource(42))
			var mu sync.Mutex
			fleet.Transport.SetDelay(func(host string) time.Duration {
				if host == entry {
					return 0
				}
				mu.Lock()
				defer mu.Unlock()
				if rnd.Float64() < p {
					return slow
				}
				return 0
			})

			lat := make([]time.Duration, 0, reqs)
			for i := 0; i < reqs; i++ {
				start := time.Now()
				res, body := postJSON(t, client, "http://"+entry+"/v1/compile",
					service.CompileRequest{Source: src, Strategy: "non-duplicate", Processors: 4})
				if res.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, res.StatusCode, body)
				}
				lat = append(lat, time.Since(start))
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			m := svcOf(t, fleet, entry).Metrics()
			t.Logf("p=%.2f hedge=%-4v  p50=%-10v p99=%-10v max=%-10v hedges=%d won=%d",
				p, budget, lat[reqs/2].Round(10*time.Microsecond),
				lat[reqs*99/100].Round(10*time.Microsecond),
				lat[reqs-1].Round(10*time.Microsecond),
				m.Counter("cluster_hedges"), m.Counter("cluster_hedges_won"))
			fleet.Close()
		}
	}
}
