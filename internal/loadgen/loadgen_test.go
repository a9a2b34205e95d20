package loadgen

import (
	"context"
	"reflect"
	"testing"
	"time"

	"commfree/internal/cluster"
	"commfree/internal/service"
)

// shortCfg is a fast schedule for unit tests: ~1s of wall time.
func shortCfg(seed int64) Config {
	return Config{
		Seed: seed,
		Phases: []Phase{
			{Name: "steady", Duration: 400 * time.Millisecond, Rate: 120},
			{Name: "overload", Duration: 400 * time.Millisecond, Rate: 400},
		},
	}
}

// TestScheduleDeterministic: the satellite replay property — one seed,
// identical schedule (field-exact), identical digest; a different seed
// diverges.
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(shortCfg(42))
	b := Schedule(shortCfg(42))
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if Digest(a) != Digest(b) {
		t.Fatal("same schedule, different digest")
	}
	c := Schedule(shortCfg(43))
	if Digest(a) == Digest(c) {
		t.Fatal("different seeds collided on digest")
	}
}

// TestScheduleShape: arrivals are in-order and confined to their
// phase windows; rates are roughly honored; the Zipf pick is skewed
// (rank 0 strictly more popular than the tail).
func TestScheduleShape(t *testing.T) {
	cfg := shortCfg(7).withDefaults()
	sched := Schedule(cfg)
	var last time.Duration
	counts := map[int]int{}
	phaseCount := map[string]int{}
	for _, r := range sched {
		if r.At < last {
			t.Fatalf("arrivals out of order at seq %d", r.Seq)
		}
		last = r.At
		bound := time.Duration(0)
		for pi := 0; pi <= r.Phase; pi++ {
			bound += cfg.Phases[pi].Duration
		}
		if r.At >= bound {
			t.Fatalf("seq %d at %v escapes phase %q", r.Seq, r.At, r.PhaseName)
		}
		counts[r.Corpus]++
		phaseCount[r.PhaseName]++
		if r.Kind != "execute" && r.Kind != "compile" {
			t.Fatalf("unknown kind %q", r.Kind)
		}
	}
	// ~48 steady (120/s × 0.4s) and ~160 overload arrivals; allow wide
	// tolerance — the draw is Poisson, but seed-fixed so this cannot
	// flake.
	if n := phaseCount["steady"]; n < 24 || n > 96 {
		t.Fatalf("steady arrivals = %d, want ≈48", n)
	}
	if n := phaseCount["overload"]; n < 80 || n > 320 {
		t.Fatalf("overload arrivals = %d, want ≈160", n)
	}
	if counts[0] <= counts[len(cfg.Corpus)-1] {
		t.Fatalf("Zipf not skewed: rank0=%d tail=%d", counts[0], counts[len(cfg.Corpus)-1])
	}
}

// TestDefaultCorpus: every admitted program must be servable.
func TestDefaultCorpus(t *testing.T) {
	corpus := DefaultCorpus()
	if len(corpus) < 4 {
		t.Fatalf("corpus too small: %d", len(corpus))
	}
}

// TestPercentile covers the index arithmetic at the edges.
func TestPercentile(t *testing.T) {
	ds := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	if got := percentile(ds, 50); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := percentile(ds, 100); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	if got := percentile(ds[:1], 99.9); got != 1 {
		t.Fatalf("single p999 = %v, want 1", got)
	}
}

// TestRunFleetSmoke drives a short steady+overload schedule against a
// 3-node in-process fleet and checks the report invariants: every
// scheduled request accounted for in exactly one outcome class, OK
// latencies measured, phases reported in order, and — same seed —
// a replayed run reports the identical digest. This is the harness
// test CI runs under -race.
func TestRunFleetSmoke(t *testing.T) {
	fleet, err := cluster.NewLocal(3, service.Config{
		Workers:    2,
		QueueDepth: 32,
		SLOTarget:  200 * time.Millisecond,
	}, cluster.WithReplicas(2), cluster.WithHedgeAfter(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	cfg := shortCfg(1234)
	cfg.SLOTarget = 200 * time.Millisecond
	targets := []string{fleet.URL(0), fleet.URL(1), fleet.URL(2)}
	rep, err := Run(context.Background(), cfg, fleet.Client(), targets, "slo")
	if err != nil {
		t.Fatal(err)
	}

	sched := Schedule(cfg)
	if rep.Requests != len(sched) {
		t.Fatalf("report requests %d != schedule %d", rep.Requests, len(sched))
	}
	if rep.Digest != Digest(sched) {
		t.Fatalf("report digest %s != schedule digest %s", rep.Digest, Digest(sched))
	}
	total := 0
	for _, n := range rep.Outcomes {
		total += n
	}
	if total != len(sched) {
		t.Fatalf("outcomes account for %d of %d requests", total, len(sched))
	}
	if rep.Outcomes[OutcomeOK] == 0 {
		t.Fatalf("no successful requests at all: %v", rep.Outcomes)
	}
	if rep.Outcomes[OutcomeTimeout] != 0 {
		t.Fatalf("hangs under load: %v", rep.Outcomes)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Name != "steady" || rep.Phases[1].Name != "overload" {
		t.Fatalf("phases = %+v", rep.Phases)
	}
	for _, p := range rep.Phases {
		if p.Outcomes[OutcomeOK] > 0 && p.P50Ms <= 0 {
			t.Fatalf("phase %s has OKs but no p50", p.Name)
		}
		if p.P50Ms > p.P99Ms || p.P99Ms > p.P999Ms {
			t.Fatalf("phase %s percentiles not monotone: %+v", p.Name, p)
		}
	}
}
