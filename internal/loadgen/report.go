package loadgen

// Report assembly: per-phase latency reservoirs, outcome accounting,
// and counter deltas scraped from the targets' /v1/metrics at phase
// boundaries.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Outcome classes: every fired request lands in exactly one.
const (
	OutcomeOK      = "ok"      // 200 with a decodable document
	OutcomeShed    = "shed"    // 429 + Retry-After (admission control)
	OutcomeDrained = "drained" // 503 (node draining)
	OutcomeTimeout = "timeout" // client budget expired — a hang
	OutcomeError   = "error"   // transport error or unexpected status
	OutcomeOverrun = "overrun" // not fired: MaxOutstanding exhausted
)

// PhaseReport aggregates one phase.
type PhaseReport struct {
	Name     string         `json:"name"`
	Offered  int            `json:"offered"` // scheduled arrivals
	Fired    int            `json:"fired"`   // actually sent
	Outcomes map[string]int `json:"outcomes"`

	// Latency percentiles over OK responses (ms).
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// AdmittedP99Ms is the p99 over admitted requests only — the
	// population the SLO admission controller makes promises about.
	AdmittedP99Ms float64 `json:"admitted_p99_ms"`

	// ThroughputRPS counts OK responses per second of phase time;
	// GoodputRPS only those within the SLO target.
	ThroughputRPS float64 `json:"throughput_rps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	// ShedRate is sheds ÷ fired.
	ShedRate float64 `json:"shed_rate"`

	// Fleet counter deltas over the phase (approximate: scraped at
	// phase boundaries while requests may still be in flight).
	Hedges       int64   `json:"hedges"`
	HedgeWinRate float64 `json:"hedge_win_rate"`
	Sheds        int64   `json:"sheds"`
	Retries      int64   `json:"retries"`
	Degraded     int64   `json:"degraded"`
}

// Report is the full run summary.
type Report struct {
	Seed        int64          `json:"seed"`
	Digest      string         `json:"digest"`
	Admission   string         `json:"admission"`
	SLOTargetMs float64        `json:"slo_target_ms"`
	Targets     int            `json:"targets"`
	Requests    int            `json:"requests"`
	WallS       float64        `json:"wall_s"`
	Phases      []PhaseReport  `json:"phases"`
	Outcomes    map[string]int `json:"outcomes"`
	// ErrorStatuses breaks the error class down by HTTP status
	// (0: transport-level failure) — the first question a surprising
	// error count raises.
	ErrorStatuses map[int]int `json:"error_statuses,omitempty"`
}

// percentile returns the pth percentile (0 < p ≤ 100) of the sorted
// durations in ms (0 for an empty set).
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// result is one fired request's outcome (internal to the runner).
type result struct {
	seq     int
	phase   int
	outcome string
	status  int // HTTP status for error-class outcomes (0: transport)
	latency time.Duration
}

// counterKeys are the fleet counters diffed per phase.
var counterKeys = []string{
	"cluster_hedges", "cluster_hedges_won",
	"admission_sheds", "overload_rejections",
	"execute_retries", "execute_degraded",
}

// buildPhase folds one phase's results and counter deltas.
func buildPhase(ph Phase, offered int, results []result, slo time.Duration, delta map[string]int64) PhaseReport {
	pr := PhaseReport{Name: ph.Name, Offered: offered, Outcomes: map[string]int{}}
	var oks []time.Duration
	good := 0
	for _, r := range results {
		pr.Outcomes[r.outcome]++
		if r.outcome != OutcomeOverrun {
			pr.Fired++
		}
		if r.outcome == OutcomeOK {
			oks = append(oks, r.latency)
			if r.latency <= slo {
				good++
			}
		}
	}
	sort.Slice(oks, func(i, j int) bool { return oks[i] < oks[j] })
	pr.P50Ms = percentile(oks, 50)
	pr.P99Ms = percentile(oks, 99)
	pr.P999Ms = percentile(oks, 99.9)
	pr.AdmittedP99Ms = pr.P99Ms // admitted ⊇ ok; sheds never enter oks
	if secs := ph.Duration.Seconds(); secs > 0 {
		pr.ThroughputRPS = float64(len(oks)) / secs
		pr.GoodputRPS = float64(good) / secs
	}
	if pr.Fired > 0 {
		pr.ShedRate = float64(pr.Outcomes[OutcomeShed]) / float64(pr.Fired)
	}
	pr.Hedges = delta["cluster_hedges"]
	if pr.Hedges > 0 {
		pr.HedgeWinRate = float64(delta["cluster_hedges_won"]) / float64(pr.Hedges)
	}
	pr.Sheds = delta["admission_sheds"] + delta["overload_rejections"]
	pr.Retries = delta["execute_retries"]
	pr.Degraded = delta["execute_degraded"]
	return pr
}

// Summarize renders the human-readable table.
func (r *Report) Summarize(w io.Writer) {
	fmt.Fprintf(w, "loadgen seed=%d digest=%s admission=%s slo=%.0fms targets=%d requests=%d wall=%.1fs\n",
		r.Seed, r.Digest, r.Admission, r.SLOTargetMs, r.Targets, r.Requests, r.WallS)
	fmt.Fprintf(w, "%-10s %7s %7s %9s %9s %9s %9s %9s %7s %7s\n",
		"phase", "offered", "ok", "p50ms", "p99ms", "p999ms", "good/s", "thru/s", "shed%", "hedgeW")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s %7d %7d %9.2f %9.2f %9.2f %9.1f %9.1f %6.1f%% %6.2f\n",
			p.Name, p.Offered, p.Outcomes[OutcomeOK], p.P50Ms, p.P99Ms, p.P999Ms,
			p.GoodputRPS, p.ThroughputRPS, p.ShedRate*100, p.HedgeWinRate)
	}
	fmt.Fprintf(w, "outcomes: %v\n", r.Outcomes)
}
