package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds. The span
// covers sub-millisecond cache hits through multi-minute class-C
// simulations.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300,
}

// histogram is a fixed-bucket cumulative histogram (Prometheus
// convention: counts[i] counts observations <= bucket[i]).
type histogram struct {
	counts []uint64
	count  uint64
	sum    float64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets))}
}

func (h *histogram) observe(seconds float64) {
	h.count++
	h.sum += seconds
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			h.counts[i]++
		}
	}
}

// Metrics aggregates request and job telemetry for GET /metrics.
// All methods are safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]uint64     // "route|code" -> count
	jobs     map[string]uint64     // "kind|status" -> count
	timing   map[string]uint64     // "kind|fidelity" -> count
	accuracy map[string]uint64     // "kind|accuracy" -> count
	shed     map[string]uint64     // overload-ladder action -> count
	hot      map[string]*hotEntry  // canonical characterize key -> serve stats
	latency  map[string]*histogram // route -> request latency
	jobTime  map[string]*histogram // kind -> job queue-to-finish time
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]uint64),
		jobs:     make(map[string]uint64),
		timing:   make(map[string]uint64),
		accuracy: make(map[string]uint64),
		shed:     make(map[string]uint64),
		hot:      make(map[string]*hotEntry),
		latency:  make(map[string]*histogram),
		jobTime:  make(map[string]*histogram),
	}
}

// ObserveShed records one overload-ladder step: "forward" (request
// proxied to the key's primary), "degrade" (answered from the fast
// tier via the shed reserve), or "reject" (429, the last resort).
func (m *Metrics) ObserveShed(action string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed[action]++
}

// ObserveRequest records one HTTP request's route, status code, and
// handler latency.
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[fmt.Sprintf("%s|%d", route, code)]++
	h := m.latency[route]
	if h == nil {
		h = newHistogram()
		m.latency[route] = h
	}
	h.observe(d.Seconds())
}

// ObserveTiming records one admitted timing job's kind and fidelity
// tier, so operators can see which tier (fast 1/32 sampled vs full
// stream) is actually serving traffic.
func (m *Metrics) ObserveTiming(kind, fidelity string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timing[kind+"|"+fidelity]++
}

// ObserveAccuracy records one admitted characterization's kind and
// accuracy tier (exact full-stream vs sampled phase analysis), the
// characterization twin of ObserveTiming.
func (m *Metrics) ObserveAccuracy(kind, accuracy string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accuracy[kind+"|"+accuracy]++
}

// hotEntry tracks one canonical characterization key's serve count and
// the tier that answered it most recently.
type hotEntry struct {
	serves     uint64
	lastSource string
}

// HotKeyView is one row of the /healthz hot-key report.
type HotKeyView struct {
	Key        string `json:"key"`
	Serves     uint64 `json:"serves"`
	LastSource string `json:"last_source"`
}

// ObserveServe records one successfully served characterization under
// its canonical key, remembering which tier (cold, snapshot, replay,
// peer, sampled) produced the answer.
func (m *Metrics) ObserveServe(key, source string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.hot[key]
	if e == nil {
		e = &hotEntry{}
		m.hot[key] = e
	}
	e.serves++
	e.lastSource = source
}

// HotKeys returns the k most-served canonical keys, most popular
// first; ties break on key order so the report is deterministic.
func (m *Metrics) HotKeys(k int) []HotKeyView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]HotKeyView, 0, len(m.hot))
	for key, e := range m.hot {
		out = append(out, HotKeyView{Key: key, Serves: e.serves, LastSource: e.lastSource})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Serves != out[j].Serves {
			return out[i].Serves > out[j].Serves
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ObserveJob records one finished job's kind, terminal status, and
// queue-to-finish duration.
func (m *Metrics) ObserveJob(kind string, status Status, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[kind+"|"+string(status)]++
	h := m.jobTime[kind]
	if h == nil {
		h = newHistogram()
		m.jobTime[kind] = h
	}
	h.observe(d.Seconds())
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, with deterministic (sorted) series order.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP bioperfd_http_requests_total HTTP requests by route and status code.")
	fmt.Fprintln(w, "# TYPE bioperfd_http_requests_total counter")
	for _, k := range sortedKeys(m.requests) {
		route, code := splitKey(k)
		fmt.Fprintf(w, "bioperfd_http_requests_total{route=%q,code=%q} %d\n", route, code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP bioperfd_http_request_duration_seconds HTTP handler latency.")
	fmt.Fprintln(w, "# TYPE bioperfd_http_request_duration_seconds histogram")
	writeHistograms(w, "bioperfd_http_request_duration_seconds", "route", m.latency)

	fmt.Fprintln(w, "# HELP bioperfd_jobs_total Finished jobs by kind and terminal status.")
	fmt.Fprintln(w, "# TYPE bioperfd_jobs_total counter")
	for _, k := range sortedKeys(m.jobs) {
		kind, status := splitKey(k)
		fmt.Fprintf(w, "bioperfd_jobs_total{kind=%q,status=%q} %d\n", kind, status, m.jobs[k])
	}

	fmt.Fprintln(w, "# HELP bioperfd_timing_requests_total Admitted timing jobs by kind and fidelity tier.")
	fmt.Fprintln(w, "# TYPE bioperfd_timing_requests_total counter")
	for _, k := range sortedKeys(m.timing) {
		kind, fid := splitKey(k)
		fmt.Fprintf(w, "bioperfd_timing_requests_total{kind=%q,fidelity=%q} %d\n", kind, fid, m.timing[k])
	}

	fmt.Fprintln(w, "# HELP bioperfd_accuracy_requests_total Admitted characterizations by kind and accuracy tier.")
	fmt.Fprintln(w, "# TYPE bioperfd_accuracy_requests_total counter")
	for _, k := range sortedKeys(m.accuracy) {
		kind, acc := splitKey(k)
		fmt.Fprintf(w, "bioperfd_accuracy_requests_total{kind=%q,accuracy=%q} %d\n", kind, acc, m.accuracy[k])
	}

	hotKeys := make([]string, 0, len(m.hot))
	for k := range m.hot {
		hotKeys = append(hotKeys, k)
	}
	sort.Strings(hotKeys)
	fmt.Fprintln(w, "# HELP bioperfd_hot_key_serves_total Characterizations served per canonical key.")
	fmt.Fprintln(w, "# TYPE bioperfd_hot_key_serves_total counter")
	for _, k := range hotKeys {
		fmt.Fprintf(w, "bioperfd_hot_key_serves_total{key=%q} %d\n", k, m.hot[k].serves)
	}

	fmt.Fprintln(w, "# HELP bioperfd_shed_total Overload-ladder actions (forward to primary, degrade to fast tier, reject 429).")
	fmt.Fprintln(w, "# TYPE bioperfd_shed_total counter")
	for _, k := range sortedKeys(m.shed) {
		fmt.Fprintf(w, "bioperfd_shed_total{action=%q} %d\n", k, m.shed[k])
	}

	fmt.Fprintln(w, "# HELP bioperfd_job_duration_seconds Job queue-to-finish time.")
	fmt.Fprintln(w, "# TYPE bioperfd_job_duration_seconds histogram")
	writeHistograms(w, "bioperfd_job_duration_seconds", "kind", m.jobTime)
}

func writeHistograms(w io.Writer, name, label string, hs map[string]*histogram) {
	keys := make([]string, 0, len(hs))
	for k := range hs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hs[k]
		for i, ub := range latencyBuckets {
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, k, ub, h.counts[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, k, h.count)
		fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, k, h.sum)
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, k, h.count)
	}
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func splitKey(k string) (string, string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '|' {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}
