package main

// The all-workloads mode: every workload in a child process of its
// own (so each one's peak RSS, listeners and temporary directories are
// its own), the whole set N times, and a verdict per workload × metric
// against the bounds BENCHMARK.json records.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -agree reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// child runs one workload in a fresh process and returns its result line.
func child(workload string, seed uint64, seconds, trace int, outDir string) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimSpace(stdout.String())
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, runErr
		}
		return line, fmt.Errorf("%s printed no result line: %w", workload, err)
	}
	return line, nil
}

// runAll runs the four workloads `sets` times (set i with seed+i), then
// each once more traced, prints the agreement table and returns the
// exit code: non-zero when an output check failed or a metric's spread
// over the sets exceeds its bound.
func runAll(seed uint64, seconds, sets int, outDir string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -agree needs BENCHMARK.json in the working directory:", err)
		return 2
	}
	failed := false
	lines := map[string][]resultLine{}
	for set := 0; set < sets; set++ {
		for _, w := range workloadNames {
			line, err := child(w, seed+uint64(set), seconds, 0, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", w, err)
				return 1
			}
			failed = failed || !line.Correct
			lines[w] = append(lines[w], line)
		}
	}
	for _, w := range workloadNames {
		line, err := child(w, seed, seconds, 1, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", w, err)
			return 1
		}
		failed = failed || !line.Correct
	}

	type verdict struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Pass     bool      `json:"pass"`
	}
	var verdicts []verdict
	fmt.Printf("agreement over %d sets (spread = (Q3 - Q1) / median, judged against the bound; setup_s is reported, not judged)\n", sets)
	for _, w := range workloadNames {
		for _, m := range bf.EndToEnd {
			v := verdict{Workload: w, Metric: m.Name, Bound: m.Bound}
			for _, line := range lines[w] {
				v.Values = append(v.Values, line.Metrics[m.Name].Value)
			}
			q1, q3 := quartiles(v.Values)
			v.Median = median(v.Values)
			v.Spread = (q3 - q1) / v.Median
			v.Pass = v.Spread <= v.Bound || m.Name == "setup_s"
			failed = failed || !v.Pass
			verdicts = append(verdicts, v)
			mark := "PASS"
			if !v.Pass {
				mark = "FAIL"
			}
			fmt.Printf("  %-14s %-18s median %12.4f  spread %6.2f%%  bound %4.0f%%  %s  %v\n",
				w, m.Name, v.Median, 100*v.Spread, 100*m.Bound, mark, v.Values)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), map[string]any{"seed": seed, "sets": sets, "agreement": verdicts}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}
