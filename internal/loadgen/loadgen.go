// Package loadgen is the deterministic open-loop workload generator
// for the commfree serving stack: it drives a single node or an
// in-process MapTransport fleet with Zipfian plan popularity over the
// corpus, through warmup → steady → overload → recovery phases, and
// reports per-phase latency percentiles, goodput, hedge win rate and
// shed rate.
//
// Two properties shape the design:
//
//   - open loop: requests fire on a precomputed arrival schedule
//     regardless of how fast the system answers. A closed loop (next
//     request after the previous response) self-throttles exactly when
//     the system degrades, hiding the overload behavior this harness
//     exists to measure; the open loop keeps the offered rate honest
//     and lets queueing delay and shedding show up in the numbers.
//   - seed-pure determinism: the whole schedule — arrival times,
//     corpus picks, strategies, request kinds, processor counts, chaos
//     seeds — is a pure function of (Config, Seed) via the same
//     splitmix64-style hashing internal/chaos uses. Two runs from one
//     seed replay the identical request sequence (Digest proves it);
//     only wall-clock measurements differ.
package loadgen

import (
	"fmt"
	"math"
	"time"

	"commfree/internal/lang"
)

// mix is a splitmix64-style avalanche over the words — the same
// construction internal/chaos uses, duplicated locally so the two
// packages' streams stay independent by design rather than by stream
// numbering discipline.
func mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// unit maps a hash draw to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Identity streams keep draw kinds independent: changing how many
// draws one request makes never shifts another request's draws.
const (
	streamArrival = 1 + iota
	streamCorpus
	streamStrategy
	streamKind
	streamProcs
	streamChaos
)

// Phase is one segment of the open-loop schedule.
type Phase struct {
	// Name labels the phase in the report ("warmup", "steady",
	// "overload", "recovery", ...).
	Name string `json:"name"`
	// Duration is the phase length; Rate the offered load in
	// requests/second over it.
	Duration time.Duration `json:"duration"`
	Rate     float64       `json:"rate"`
}

// Config parameterizes a workload. Zero values select the documented
// defaults (applied by withDefaults; Schedule and Run call it).
type Config struct {
	// Seed drives every random choice in the schedule.
	Seed int64 `json:"seed"`
	// Phases is the arrival-rate profile (default: 2s warmup at 50/s,
	// 4s steady at 100/s, 4s overload at 300/s, 4s recovery at 50/s).
	Phases []Phase `json:"phases"`
	// Corpus is the set of programs plan popularity ranges over
	// (default DefaultCorpus()): rank 0 is the hottest plan.
	Corpus []string `json:"-"`
	// ZipfS is the Zipf exponent of plan popularity (default 1.1 —
	// a realistic hot/cold skew; 0 < s; larger is more skewed).
	ZipfS float64 `json:"zipf_s"`
	// Strategies to draw uniformly per request (default the four
	// theorem strategies).
	Strategies []string `json:"strategies,omitempty"`
	// ExecuteFrac is the fraction of /v1/execute requests; the rest hit
	// /v1/compile (default 0.9).
	ExecuteFrac float64 `json:"execute_frac"`
	// Processors are the machine sizes drawn uniformly per request
	// (default {4, 8, 16}).
	Processors []int `json:"processors,omitempty"`
	// ChaosFrac overlays seeded fault injection on this fraction of
	// execute requests (default 0); each carries a per-request chaos
	// seed derived from ChaosSeed (default Seed when 0).
	ChaosFrac float64 `json:"chaos_frac,omitempty"`
	ChaosSeed int64   `json:"chaos_seed,omitempty"`
	// SLOTarget classifies a success as goodput: completed within this
	// budget (default 150ms, matching the service default).
	SLOTarget time.Duration `json:"slo_target"`
	// RequestTimeout is the per-request client budget; an expiry counts
	// as a hang-class failure, never a silent drop (default 10s).
	RequestTimeout time.Duration `json:"request_timeout"`
	// MaxOutstanding bounds concurrently in-flight requests. The open
	// loop keeps firing past it, but excess launches are recorded as
	// overruns instead of spawning unbounded goroutines (default 4096).
	MaxOutstanding int `json:"max_outstanding"`
}

func (c Config) withDefaults() Config {
	if len(c.Phases) == 0 {
		c.Phases = []Phase{
			{Name: "warmup", Duration: 2 * time.Second, Rate: 50},
			{Name: "steady", Duration: 4 * time.Second, Rate: 100},
			{Name: "overload", Duration: 4 * time.Second, Rate: 300},
			{Name: "recovery", Duration: 4 * time.Second, Rate: 50},
		}
	}
	if len(c.Corpus) == 0 {
		c.Corpus = DefaultCorpus()
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []string{
			"non-duplicate", "duplicate", "minimal-non-duplicate", "minimal-duplicate",
		}
	}
	if c.ExecuteFrac <= 0 || c.ExecuteFrac > 1 {
		c.ExecuteFrac = 0.9
	}
	if len(c.Processors) == 0 {
		c.Processors = []int{4, 8, 16}
	}
	if c.ChaosSeed == 0 {
		c.ChaosSeed = c.Seed
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = 150 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 4096
	}
	return c
}

// maxCorpusIterations bounds the nests admitted to DefaultCorpus so a
// single request stays far under the service iteration budget.
const maxCorpusIterations = 1 << 14

// DefaultCorpus returns the servable subset of the language corpus —
// parseable, valid, small enough to execute — in corpus order, so rank
// k is stable across processes.
func DefaultCorpus() []string {
	var out []string
	for _, src := range lang.Corpus() {
		nest, err := lang.Parse(src)
		if err != nil || nest.Validate() != nil {
			continue
		}
		if nest.NumIterations() > maxCorpusIterations {
			continue
		}
		out = append(out, src)
	}
	return out
}

// Request is one scheduled arrival.
type Request struct {
	// Seq is the schedule position (0-based); At the arrival offset
	// from run start.
	Seq int           `json:"seq"`
	At  time.Duration `json:"at"`
	// Phase indexes Config.Phases; PhaseName echoes its name.
	Phase     int    `json:"phase"`
	PhaseName string `json:"phase_name"`
	// Kind is "execute" or "compile"; Corpus indexes Config.Corpus.
	Kind       string `json:"kind"`
	Corpus     int    `json:"corpus"`
	Strategy   string `json:"strategy"`
	Processors int    `json:"processors"`
	// ChaosSeed is non-zero on requests carrying the chaos overlay.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
}

// zipfCDF precomputes the cumulative popularity distribution over n
// ranks with exponent s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

// pickCDF maps a [0,1) draw through the CDF.
func pickCDF(cdf []float64, u float64) int {
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}

// Schedule materializes the full request sequence for the config — a
// pure function of (Config, Seed). The exponential inter-arrival draw
// makes each phase a Poisson process at its configured rate.
func Schedule(cfg Config) []Request {
	cfg = cfg.withDefaults()
	seed := uint64(cfg.Seed)
	cdf := zipfCDF(len(cfg.Corpus), cfg.ZipfS)
	var out []Request
	base := time.Duration(0)
	seq := 0
	for pi, ph := range cfg.Phases {
		if ph.Rate <= 0 || ph.Duration <= 0 {
			base += ph.Duration
			continue
		}
		at := base
		for i := 0; ; i++ {
			// Exponential inter-arrival: -ln(1-u)/rate seconds.
			u := unit(mix(seed, streamArrival, uint64(pi), uint64(i)))
			gap := time.Duration(-math.Log(1-u) / ph.Rate * float64(time.Second))
			at += gap
			if at >= base+ph.Duration {
				break
			}
			r := Request{
				Seq:        seq,
				At:         at,
				Phase:      pi,
				PhaseName:  ph.Name,
				Corpus:     pickCDF(cdf, unit(mix(seed, streamCorpus, uint64(seq)))),
				Strategy:   cfg.Strategies[int(mix(seed, streamStrategy, uint64(seq))%uint64(len(cfg.Strategies)))],
				Processors: cfg.Processors[int(mix(seed, streamProcs, uint64(seq))%uint64(len(cfg.Processors)))],
			}
			if unit(mix(seed, streamKind, uint64(seq))) < cfg.ExecuteFrac {
				r.Kind = "execute"
			} else {
				r.Kind = "compile"
			}
			if r.Kind == "execute" && cfg.ChaosFrac > 0 &&
				unit(mix(seed, streamChaos, uint64(seq))) < cfg.ChaosFrac {
				r.ChaosSeed = int64(mix(uint64(cfg.ChaosSeed), streamChaos, uint64(seq)) | 1)
			}
			out = append(out, r)
			seq++
		}
		base += ph.Duration
	}
	return out
}

// Digest folds the schedule into a stable hex fingerprint: two runs of
// one seed must agree on it exactly, and the report carries it so a
// replayed benchmark can prove it measured the same workload.
func Digest(reqs []Request) string {
	h := uint64(len(reqs))
	for _, r := range reqs {
		h = mix(h, uint64(r.At), uint64(r.Phase), uint64(r.Corpus),
			uint64(len(r.Strategy)), uint64(r.Processors),
			uint64(len(r.Kind)), uint64(r.ChaosSeed))
		for _, b := range []byte(r.Strategy) {
			h = h*1099511628211 + uint64(b)
		}
	}
	return fmt.Sprintf("%016x", h)
}
