package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"commfree/internal/lang"
)

// benchmarkDoc is BENCHMARK.json as the tests read it.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units, and the run length must be the
// program's default.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var workloads []string
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if fmt.Sprint(workloads) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", workloads, workloadNames)
	}
	var e2e, layers []metric
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad name or bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, metric{m.Name, m.Unit})
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %q: bad name", m.Name)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if fmt.Sprint(layers) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layers, perLayer)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
}

// A short run of every workload, traced: all named metrics and no
// others come out, every response verifies, and the counters each
// workload is built around hold.
func TestShortRunOfEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := runWorkload(runConfig{workload: name, seed: 7, window: 1200 * time.Millisecond, setUps: 1, trace: true, outDir: out}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			for table, want := range map[string][]metric{"end_to_end": endToEnd, "per_layer": perLayer} {
				got := r.EndToEnd
				if table == "per_layer" {
					got = r.PerLayer
				}
				for _, m := range want {
					if _, ok := got[m.Name]; !ok {
						t.Errorf("%s metric %s is missing", table, m.Name)
					}
				}
				if len(got) != len(want) {
					t.Errorf("%s reports %d metrics, %d are named: %v", table, len(got), len(want), got)
				}
			}
			for _, m := range endToEnd {
				if r.EndToEnd[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, r.EndToEnd[m.Name])
				}
			}
			l := r.PerLayer
			switch name {
			case wlCompileCold:
				if l["service.compiles"] != l["client.ops"] {
					t.Errorf("%v compiles for %v cold ops", l["service.compiles"], l["client.ops"])
				}
				if l["selector.best_us"] < l["partition.compute_us"] {
					t.Errorf("selector (%v us) should dominate partition (%v us)", l["selector.best_us"], l["partition.compute_us"])
				}
			case wlExecuteWarm:
				if l["store.reads"] != 0 || l["service.compiles"] != 0 || l["cluster.hop_self_us"] != 0 {
					t.Errorf("execute-warm: reads %v compiles %v hop %v", l["store.reads"], l["service.compiles"], l["cluster.hop_self_us"])
				}
			case wlPlanChurn:
				if l["service.compiles"] != 0 || l["store.reads"] == 0 || l["service.rehydrate_us"] == 0 {
					t.Errorf("plan-churn: compiles %v reads %v rehydrate %v", l["service.compiles"], l["store.reads"], l["service.rehydrate_us"])
				}
			case wlFleetForward:
				if l["cluster.forwarded_share"] != 1 || l["service.compiles"] != 0 || l["cluster.hop_self_us"] <= 0 {
					t.Errorf("fleet-forward: forwarded share %v compiles %v hop %v", l["cluster.forwarded_share"], l["service.compiles"], l["cluster.hop_self_us"])
				}
			}
			if _, err := os.Stat(out + "/trace-" + name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(func() {
		// Every store directory and scratch store is gone again.
		if left, _ := os.ReadDir(out + "/tmp"); len(left) != 0 {
			t.Errorf("%d temporary entries left behind", len(left))
		}
	})
}

// One seed is one load; the seed changes the load but never the
// canonical programs, and neither it nor the workload's name reaches
// the code under test.
func TestSeedPurity(t *testing.T) {
	const seed = 918273645
	for _, name := range workloadNames {
		a, err := generate(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, seed)
		c, _ := generate(name, seed+1)
		if a.Digest() != b.Digest() {
			t.Errorf("%s: one seed, two digests", name)
		}
		if a.Digest() == c.Digest() {
			t.Errorf("%s: two seeds, one digest", name)
		}
		for i, p := range a.Plans {
			body, _ := json.Marshal(request(p))
			if bytes.Contains(body, []byte(name)) || bytes.Contains(body, []byte(fmt.Sprint(seed))) {
				t.Errorf("%s: request %s carries the workload name or the seed", name, p.ID())
			}
			ca, err := lang.CanonicalSource(p.Source)
			if err != nil {
				t.Fatalf("%s does not parse: %v\n%s", p.ID(), err, p.Source)
			}
			if cc, _ := lang.CanonicalSource(c.Plans[i].Source); ca != cc {
				t.Errorf("%s: spellings of two seeds canonicalize differently", p.ID())
			}
		}
	}
}

func TestExpectedCoversEveryGeneratedProgram(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, _ := generate(name, 1)
		if err := exp.covers(w.Plans); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// A wrong output is a named failure, not a pass.
	w, _ := generate(wlExecuteWarm, 1)
	want, _ := exp.run(w.Plans[0])
	got := executeView{Engine: "kernel", Validated: true, Elements: want.Elements, SimElapsedS: want.SimElapsedS, IterationsPerNode: want.IterationsPerNode}
	if err := checkExecute(got, want); err != nil {
		t.Errorf("matching response rejected: %v", err)
	}
	got.Elements++
	if checkExecute(got, want) == nil {
		t.Error("response with a wrong element count accepted")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
