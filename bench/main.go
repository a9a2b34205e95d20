// Command bench is the repository's benchmark: four seeded workloads
// (compile-cold, execute-warm, plan-churn, fleet-forward) measured end
// to end and, in a separate traced pass, layer by layer. README.md in
// this directory has the tables; BENCHMARK.json at the repository root
// names every workload and metric with its unit and regression bound.
//
//	bash bench/run.sh --workload execute-warm --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --agree 2          # all four, twice, with verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// metric names a reported number and its unit.
type metric struct{ Name, Unit string }

// endToEnd is what a user of the system sees, in the order printed.
// failed_share is not among them: the contract this benchmark is run
// under forbids a metric that is 0 on correct code, so failures are
// reported as the failed/attempted counts of every result line.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"geomean_op_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer is the traced pass's table, in pipeline order.
var perLayer = []metric{
	{"normalize.source_us", "us"}, {"lang.canonical_us", "us"}, {"lang.parse_us", "us"},
	{"selector.best_us", "us"}, {"selector.candidates", "count"},
	{"deps.analyze_us", "us"}, {"redundant.eliminate_us", "us"},
	{"partition.compute_us", "us"}, {"partition.blocks", "count"}, {"partition.us_per_kiter", "us"}, {"partition.size_ratio", "ratio"},
	{"mars.compute_us", "us"}, {"partition.verify_us", "us"},
	{"transform.transform_us", "us"}, {"assign.assign_us", "us"}, {"codegen.generate_us", "us"}, {"codegen.spmd_bytes", "bytes"},
	{"exec.compile_nest_us", "us"}, {"exec.specialize_us", "us"}, {"exec.kernel_run_us", "us"}, {"exec.kernel_allocs", "count"},
	{"exec.sequential_us", "us"}, {"exec.equal_us", "us"},
	{"store.put_us", "us"}, {"store.get_us", "us"}, {"store.record_bytes", "bytes"}, {"store.reads", "count"}, {"store.writes", "count"},
	{"service.execute_us", "us"}, {"service.compile_hit_us", "us"}, {"service.compile_cold_us", "us"},
	{"service.dispatch_self_us", "us"}, {"service.compile_self_us", "us"}, {"service.http_self_us", "us"},
	{"service.rehydrate_us", "us"}, {"service.cache_hit_ratio", "ratio"}, {"service.compiles", "count"},
	{"cluster.hop_self_us", "us"}, {"cluster.forwarded_share", "ratio"}, {"cluster.ring_route_ns", "ns"},
	{"runtime.allocs_per_op", "count"}, {"runtime.alloc_kb_per_op", "KiB"}, {"runtime.cpu_ms_per_op", "ms"}, {"runtime.gc_pause_ms", "ms"},
	{"client.latency_p99_us", "us"}, {"client.latency_max_us", "us"}, {"client.ops", "count"},
	{"bench.trace_overhead_share", "ratio"}, {"bench.attributed_share", "ratio"},
}

// Fixed run shape. Only the window length is an argument, and
// BENCHMARK.json's run_seconds fixes that, so a parent commit and a
// change always run the same length.
const (
	defaultSeconds = 20
	warmupLen      = 2 * time.Second
	// setUps is how many times a run sets the workload up; setup_s is
	// the median, the last one is measured on.
	setUps = 3
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	warmup   time.Duration
	setUps   int
	trace    bool
	outDir   string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is everything a run learned; result-<workload>.json holds it.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"window_s"`
	Digest   string  `json:"request_digest"`
	resultLine
	Failures []string `json:"failures,omitempty"`
	// Samples are the counts behind the percentiles: verified ops and
	// whole rounds in the window, and the ops of the quietest rounds.
	Samples  map[string]int     `json:"samples"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Programs []programRow       `json:"programs"`
}

// runWorkload sets the workload up, warms it, measures the timed
// window, checks the counters the workload is built around and, when
// asked, runs the traced pass.
func runWorkload(cfg runConfig, out io.Writer) (*result, error) {
	w, err := generate(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.Remove(tmp) // empty again once every env is closed

	var e *env
	var setupS []float64
	for i := 0; i < cfg.setUps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = setUp(w, exp, tmp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	// Set-up compiles leave a large, mostly dead heap behind; collect it
	// and hand it back now, so the collector and the scavenger are not
	// still shrinking it during the timed window.
	debug.FreeOSMemory()
	next := make([]int, w.Clients)
	if _, _, _, err := e.drive(cfg.warmup, next); err != nil {
		return nil, err
	}
	before := e.snapshot()
	samples, failures, elapsed, err := e.drive(cfg.window, next)
	if err != nil {
		return nil, err
	}
	win := e.summarize(samples, elapsed)
	if win.rounds == 0 {
		return nil, fmt.Errorf("the %v window held no whole round; run longer", elapsed)
	}
	win.failures = failures
	win.delta = e.snapshot().minus(before)
	win.metrics["setup_s"] = median(setupS)
	win.metrics["peak_rss_mb"] = peakRSSMiB()

	// The counters each workload is built around.
	d := win.delta
	claim := func(ok bool, format string, args ...any) {
		if !ok {
			win.failures = append(win.failures, fmt.Sprintf(format, args...))
		}
	}
	switch w.Name {
	case wlCompileCold:
		claim(d.compiles == int64(win.attempted), "%d compiles for %d cold compile ops", d.compiles, win.attempted)
	case wlFleetForward:
		claim(d.forwardedIn == int64(win.attempted), "%d forwarded-in requests for %d ops: not every op paid one hop", d.forwardedIn, win.attempted)
		fallthrough
	default:
		claim(d.compiles == 0, "%d recompilations on a warm workload", d.compiles)
		claim(w.Name != wlExecuteWarm || d.storeGets == 0, "%d store reads on execute-warm", d.storeGets)
	}

	r := &result{
		Workload: w.Name, Seed: cfg.seed, Seconds: elapsed.Seconds(), Digest: w.Digest(),
		Samples:  map[string]int{"ops": win.ok, "rounds": win.rounds, "quiet_rounds_ops": win.pooled},
		EndToEnd: win.metrics, Programs: win.programs,
	}
	r.Attempted, r.Failed = win.attempted, win.attempted-win.ok
	report := endToEnd
	values := win.metrics
	if cfg.trace {
		scratch, err := os.MkdirTemp(tmp, "probe-store-")
		if err != nil {
			return nil, err
		}
		t, layers, err := e.tracedPass(win, scratch)
		os.RemoveAll(scratch)
		if t != nil {
			if werr := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), t.spans); werr != nil {
				return nil, werr
			}
		}
		if err != nil {
			win.failures = append(win.failures, "traced pass: "+err.Error())
			layers = map[string]float64{}
		}
		n := replayOps
		if w.Name == wlCompileCold {
			n = len(w.Plans)
		}
		r.Attempted += n
		r.Samples["traced_ops"] = n
		r.PerLayer, report, values = layers, perLayer, layers
	}
	r.Failures = win.failures
	r.Correct = len(win.failures) == 0
	if !r.Correct && r.Failed == 0 {
		r.Failed = 1 // a broken counter claim or traced op fails the run
	}
	r.Metrics = map[string]value{}
	for _, m := range report {
		r.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}

	fmt.Fprintf(out, "workload %s  seed %d  window %.2fs  request digest %s\n", w.Name, cfg.seed, elapsed.Seconds(), r.Digest)
	fmt.Fprintf(out, "  %d ops attempted, %d failed; %d verified in %d rounds; percentiles over the %d ops of the %d quietest rounds\n",
		r.Attempted, r.Failed, win.ok, win.rounds, win.pooled, min(quietRounds, win.rounds))
	for _, m := range report {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
	fmt.Fprintf(out, "  per program (median ms, samples):\n")
	for _, p := range win.programs {
		fmt.Fprintf(out, "    %-36s %8d it %10.4f ms  n=%d\n", p.ID, p.Iterations, p.MedianMS, p.Samples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result-"+w.Name+".json"), r); err != nil {
		return nil, err
	}
	return r, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line; empty runs all four as child processes")
		seed    = flag.Uint64("seed", 1, "seed of every random choice in the load")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics in place of the end-to-end ones")
		agree   = flag.Int("agree", 2, "without -workload: how many times to run the set before judging the spread of every metric")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files and for temporary stores")
		regen   = flag.Bool("regen-expected", false, "rewrite the pins of expected.json (run inside bench/) and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	if *regen {
		if err := regenExpected("expected.json"); err != nil {
			fmt.Fprintln(os.Stderr, "bench: refusing to regenerate:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *agree, *outDir))
	}
	r, err := runWorkload(runConfig{*name, *seed, time.Duration(*seconds) * time.Second, warmupLen, setUps, *trace == 1, *outDir}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(r.resultLine)
	fmt.Printf("%s\n", line)
	if !r.Correct {
		os.Exit(1)
	}
}
