package service

// Metrics registry: per-stage latency histograms, request counters, and
// live gauges (queue depth, in-flight requests, cache occupancy),
// exported as a JSON document on GET /v1/metrics. Everything is safe
// for concurrent use; gauges are sampled at snapshot time via
// callbacks so the registry holds no back-pointers into the service.

import (
	"sort"
	"sync"
	"time"

	"commfree/internal/obs"
)

// bucketBounds are the histogram upper bounds in seconds (the last
// bucket is +Inf). Latencies of interest run from tens of microseconds
// (a cache hit) to seconds (a large cold compile).
var bucketBounds = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Histogram is a fixed-bucket latency histogram. The zero value is
// ready to use.
type Histogram struct {
	mu     sync.Mutex
	counts []int64 // len(bucketBounds)+1; last bucket is +Inf
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.observeLocked(d)
	h.mu.Unlock()
}

// observeLocked is Observe with h.mu held.
func (h *Histogram) observeLocked(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(bucketBounds, s)
	if h.counts == nil {
		h.counts = make([]int64, len(bucketBounds)+1)
	}
	h.counts[i]++
	h.count++
	h.sum += s
	if h.count == 1 || s < h.min {
		h.min = s
	}
	if s > h.max {
		h.max = s
	}
}

// BucketSnapshot is one histogram bucket in the JSON export.
type BucketSnapshot struct {
	// LE is the bucket's inclusive upper bound in seconds; the last
	// bucket reports 0 with Inf=true.
	LE    float64 `json:"le_s"`
	Inf   bool    `json:"inf,omitempty"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the JSON export of one histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	SumS    float64          `json:"sum_s"`
	AvgS    float64          `json:"avg_s"`
	MinS    float64          `json:"min_s"`
	MaxS    float64          `json:"max_s"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// Snapshot exports the histogram. Empty buckets are elided to keep the
// document small; Count/Sum always reflect every observation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count: h.count, SumS: h.sum, MinS: h.min, MaxS: h.max,
		Buckets: []BucketSnapshot{},
	}
	if h.count > 0 {
		s.AvgS = h.sum / float64(h.count)
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		b := BucketSnapshot{Count: c}
		if i < len(bucketBounds) {
			b.LE = bucketBounds[i]
		} else {
			b.Inf = true
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// Metrics is the service-wide registry.
type Metrics struct {
	start time.Time

	mu       sync.Mutex
	stages   map[string]*Histogram
	counters map[string]int64
	gauges   map[string]func() int64
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		stages:   map[string]*Histogram{},
		counters: map[string]int64{},
		gauges:   map[string]func() int64{},
	}
}

// Stage returns (creating on first use) the named stage histogram.
func (m *Metrics) Stage(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stages[name]
	if !ok {
		h = &Histogram{}
		m.stages[name] = h
	}
	return h
}

// Observe records a latency under the named stage.
func (m *Metrics) Observe(stage string, d time.Duration) {
	m.Stage(stage).Observe(d)
}

// ObserveTrace folds a finished request trace into the stage
// histograms: every closed span contributes its duration under its span
// name, so the span-tree vocabulary and the latency histograms stay
// one and the same (parse, canonical, selection, deps, redundant,
// partition, verify, codegen, plan, transform, assign, exec_compile,
// exec_run, distribute, block, exec_validate). Nil traces and still-open spans are skipped. A run of
// spans of one name — a parallel run's block rows — looks its histogram
// up and locks it once.
func (m *Metrics) ObserveTrace(trc *obs.Trace) {
	var name string
	var h *Histogram
	trc.EachDuration(func(n string, durNS int64) {
		if h == nil || n != name {
			if h != nil {
				h.mu.Unlock()
			}
			name, h = n, m.Stage(n)
			h.mu.Lock()
		}
		h.observeLocked(time.Duration(durNS))
	})
	if h != nil {
		h.mu.Unlock()
	}
}

// Time runs fn and records its wall-clock duration under the stage.
func (m *Metrics) Time(stage string, fn func()) {
	t0 := time.Now()
	fn()
	m.Observe(stage, time.Since(t0))
}

// Inc adds n to the named counter.
func (m *Metrics) Inc(name string, n int64) {
	m.mu.Lock()
	m.counters[name] += n
	m.mu.Unlock()
}

// Counter reads the named counter.
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Gauge registers a sampled-at-snapshot-time gauge.
func (m *Metrics) Gauge(name string, sample func() int64) {
	m.mu.Lock()
	m.gauges[name] = sample
	m.mu.Unlock()
}

// Snapshot is the JSON document served on /v1/metrics.
type Snapshot struct {
	UptimeS  float64                      `json:"uptime_s"`
	Counters map[string]int64             `json:"counters"`
	Gauges   map[string]int64             `json:"gauges"`
	Stages   map[string]HistogramSnapshot `json:"stages"`
}

// Snapshot exports the registry.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	counters := make(map[string]int64, len(m.counters))
	for k, v := range m.counters {
		counters[k] = v
	}
	samplers := make(map[string]func() int64, len(m.gauges))
	for k, fn := range m.gauges {
		samplers[k] = fn
	}
	stages := make(map[string]*Histogram, len(m.stages))
	for k, h := range m.stages {
		stages[k] = h
	}
	start := m.start
	m.mu.Unlock()

	s := Snapshot{
		UptimeS:  time.Since(start).Seconds(),
		Counters: counters,
		Gauges:   map[string]int64{},
		Stages:   map[string]HistogramSnapshot{},
	}
	for k, fn := range samplers {
		s.Gauges[k] = fn()
	}
	for k, h := range stages {
		s.Stages[k] = h.Snapshot()
	}
	return s
}
