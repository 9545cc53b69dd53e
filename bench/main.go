// Command bench is bioperfload's outside-in benchmark. It drives the
// repository's public layers — runner, sim, loadchar, trace, store,
// simpoint, scoreboard, pipeline, experiments and service — through
// four workloads at classB, checks every simulated result against
// checked-in goldens, and prints one JSON result line. It never edits
// the layers it measures: a traced run rebuilds the measured paths from
// their public parts and wraps observers, sources and writers with
// timing shims. README.md defines the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bioperfload/internal/bio"
)

// processStart approximates process start for the first set-up
// sample.
var processStart = time.Now()

const (
	// setupReps is how many times a run sets its workload up; setup_s
	// is the median, so one slow set-up does not move it.
	setupReps = 3
	// minPasses is the fewest timed passes of an untraced run.
	minPasses = 3
	// minTracedPasses is the fewest passes of each kind, traced and
	// untraced, in a traced run.
	minTracedPasses = 2
	// maxErrors caps the failure messages a record keeps.
	maxErrors = 20
)

type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports; BENCHMARK.json
// lists the same names with their bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Names ending in _s,
// runner.idle_s aside, are the mean self time per traced pass of the
// spans of that name (the name without _s); the others are derived by
// the workloads. Every workload reports every name, with 0 for layers
// its path does not reach.
var perLayer = []metricSpec{
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"runner.idle_s", "s"},
	{"compiler.compile_s", "s"},
	{"sim.exec_s", "s"},
	{"sim.minst_per_s", "Minst/s"},
	{"loadchar.observe_s", "s"},
	{"loadchar.observe_ns_per_event", "ns"},
	{"trace.encode_s", "s"},
	{"trace.bits_per_event", "bit"},
	{"loadchar.snapshot_s", "s"},
	{"store.write_s", "s"},
	{"trace.open_s", "s"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.decode_wait_s", "s"},
	{"loadchar.analyze_runs_s", "s"},
	{"loadchar.replay_workers", "count"},
	{"simpoint.collect_s", "s"},
	{"simpoint.plan_s", "s"},
	{"runner.interval_replay_s", "s"},
	{"simpoint.replayed_fraction", "ratio"},
	{"simpoint.max_error_pp", "pp"},
	{"runner.functional_runs", "count"},
	{"sim.sampled_exec_s", "s"},
	{"scoreboard.observe_s", "s"},
	{"scoreboard.observed_fraction", "ratio"},
	{"scoreboard.max_speedup_err_pp", "pp"},
	{"sim.full_exec_s", "s"},
	{"pipeline.observe_s", "s"},
	{"pipeline.observe_ns_per_event", "ns"},
	{"service.request_s", "s"},
	{"service.requests", "count"},
	{"service.req_p50_ms", "ms"},
	{"service.req_tail_ms", "ms"},
	{"service.req_tail_pct", "%"},
	{"service.job_ms.characterize", "ms"},
	{"service.job_ms.evaluate", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.serve_source.snapshot", "count"},
	{"service.serve_source.cold", "count"},
	{"service.rejected", "count"},
	{"runner.snapshot_load_ms", "ms"},
	{"loadchar.render_ms", "ms"},
	{"runner.evaluate_fast_ms", "ms"},
	{"runner.evaluate_full_ms", "ms"},
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload's inputs. A run calls it setupReps
	// times; each call replaces what the previous one built.
	setup(ctx context.Context) error
	// pass runs one timed pass. tr is nil in an untraced pass; a traced
	// pass records its spans under parent, tagged with op. The returned
	// function checks the pass's outputs and releases them; it runs
	// after the clock stops.
	pass(ctx context.Context, tr *tracer, parent, op int) (check func())
	// layers sets the workload's derived per-layer metrics after the
	// window of a traced run. self holds the mean self time per traced
	// pass by span name, in seconds.
	layers(ctx context.Context, self map[string]float64, m map[string]float64)
	close()
}

var workloads = map[string]func(*env) workload{
	"cold":   newCold,
	"warm":   newWarm,
	"timing": newTiming,
	"serve":  newServe,
}

// env is what every workload shares.
type env struct {
	size bio.Size
	jobs int
	seed int64
	work string // scratch directory, removed when the run ends
	gold *golden
	chk  *checker
}

func newEnv(size bio.Size, jobs int, seed int64, work string) (*env, error) {
	gold, err := loadGolden(size)
	if err != nil {
		return nil, err
	}
	return &env{size: size, jobs: jobs, seed: seed, work: work, gold: gold, chk: &checker{}}, nil
}

func (e *env) tempDir(prefix string) (string, error) { return os.MkdirTemp(e.work, prefix) }

// checker counts attempted operations and failures: failed operations
// plus failed pass-level checks.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one attempted operation; a non-nil err fails it.
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.noteLocked(err)
}

// assert records a pass-level check that is not an operation of its
// own; a non-nil err counts as one failure.
func (c *checker) assert(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteLocked(err)
}

func (c *checker) noteLocked(err error) {
	if err == nil {
		return
	}
	c.failed++
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, err.Error())
	}
}

// ops records n operations that all share err (a pass that failed
// before producing per-operation outputs).
func (c *checker) ops(n int, err error) {
	for i := 0; i < n; i++ {
		c.op(err)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	workdir  string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write every span as JSON to this file")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the run's stores and traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds must not be negative")
	}
	o.trace = *trace == 1
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	jobs := benchJobs()
	runtime.GOMAXPROCS(jobs)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e, err := newEnv(bio.SizeB, jobs, o.seed, work)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec, spans, err := measure(context.Background(), e, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.spans != "" && o.trace {
		if err := writeSpans(o.spans, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, msg := range rec.Errors {
		fmt.Fprintln(stderr, "bench: check failed:", msg)
	}
	if err := emit(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// benchJobs is the load level: jobs, client connections and service
// workers are all min(2, NumCPU), from one process.
func benchJobs() int { return min(2, runtime.NumCPU()) }

// recordMetric is one metric of the full record: its value, unit, the
// raw samples the value was taken from, and their quartiles.
type recordMetric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// record is everything one run measured, with its provenance.
type record struct {
	Workload    string                  `json:"workload"`
	Size        string                  `json:"size"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Trace       bool                    `json:"trace"`
	NumCPU      int                     `json:"num_cpu"`
	GOMAXPROCS  int                     `json:"gomaxprocs"`
	Jobs        int                     `json:"jobs"`
	GoVersion   string                  `json:"go_version"`
	VCSRevision string                  `json:"vcs_revision"`
	VCSModified bool                    `json:"vcs_modified"`
	Passes      int                     `json:"passes"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	Errors      []string                `json:"errors,omitempty"`
	Metrics     map[string]recordMetric `json:"metrics"`
}

func newRecord(e *env, o options) *record {
	r := &record{
		Workload: o.workload, Size: e.size.String(), Seed: e.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: e.jobs,
		GoVersion: runtime.Version(), VCSRevision: "unknown",
		Metrics: make(map[string]recordMetric),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.VCSRevision = s.Value
			case "vcs.modified":
				r.VCSModified = s.Value == "true"
			}
		}
	}
	return r
}

func (r *record) set(name, unit string, value float64, samples []float64) {
	if samples == nil {
		samples = []float64{value}
	}
	q1, _, q3 := quartiles(samples)
	r.Metrics[name] = recordMetric{Value: value, Unit: unit, N: len(samples), Q1: q1, Q3: q3, Samples: samples}
}

// measure sets the workload up, runs timed passes until the window
// closes, and returns the record and, for a traced run, its spans.
func measure(ctx context.Context, e *env, o options) (*record, []span, error) {
	w := workloads[o.workload](e)
	defer w.close()
	rec := newRecord(e, o)

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var walls, cpus, allocs, tracedWalls []float64
	window := time.Now()
	for op := 0; ; op++ {
		traced := o.trace && op%2 == 1
		enough := len(walls) >= minPasses
		if o.trace {
			enough = len(walls) >= minTracedPasses && len(tracedWalls) >= minTracedPasses
		}
		if enough && time.Since(window).Seconds() >= o.seconds {
			break
		}
		var ptr *tracer
		root := 0
		if traced {
			ptr = tr
			root = tr.begin("bench.pass", 0, op)
		}
		alloc0, cpu0, t0 := heapAllocMB(), cpuSeconds(), time.Now()
		check := w.pass(ctx, ptr, root, op)
		wall, cpu, alloc := time.Since(t0).Seconds(), cpuSeconds()-cpu0, heapAllocMB()-alloc0
		ptr.end(root)
		check()
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
			allocs = append(allocs, alloc)
		}
	}
	rec.Passes = len(walls) + len(tracedWalls)

	var spans []span
	if !o.trace {
		rec.set("setup_s", "s", median(setups), setups)
		rec.set("pass_s", "s", median(walls), walls)
		rec.set("cpu_s", "s", median(cpus), cpus)
		rec.set("alloc_mb", "MB", median(allocs), allocs)
	} else {
		spans = tr.snapshot()
		m := make(map[string]float64, len(perLayer))
		samples := make(map[string][]float64)
		passes := passLayers(spans, e.jobs)
		self := make(map[string]float64)
		for _, p := range passes {
			for name, sec := range p.self {
				self[name] += sec / float64(len(passes))
				samples[name+"_s"] = append(samples[name+"_s"], sec)
			}
			samples["runner.idle_s"] = append(samples["runner.idle_s"], p.idle)
			samples["bench.unattributed_pct"] = append(samples["bench.unattributed_pct"], p.unattributedPct)
		}
		for name, sec := range self {
			m[name+"_s"] = sec
		}
		m["runner.idle_s"] = mean(samples["runner.idle_s"])
		m["bench.unattributed_pct"] = mean(samples["bench.unattributed_pct"])
		// The overhead compares the traced passes with the untraced ones
		// interleaved with them in this run.
		m["bench.trace_overhead_pct"] = 100 * (median(tracedWalls)/median(walls) - 1)
		samples["bench.trace_overhead_pct"] = []float64{median(walls), median(tracedWalls)}
		w.layers(ctx, self, m)
		units := make(map[string]string, len(perLayer))
		for _, s := range perLayer {
			units[s.name] = s.unit
			rec.set(s.name, s.unit, m[s.name], samples[s.name])
		}
		for name := range m {
			if _, ok := units[name]; !ok {
				return nil, nil, fmt.Errorf("metric %q is not a declared per-layer metric", name)
			}
		}
	}
	// Peak RSS rides with the record only: it moves with garbage
	// collection timing by about ±10% run to run, too much to bound.
	rec.set("peak_rss_mb", "MB", peakRSSMB(), nil)
	rec.Attempted, rec.Failed, rec.Errors = e.chk.attempted, e.chk.failed, e.chk.errs
	return rec, spans, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// emit prints the full record as one JSON line, then the result line
// the benchmark contract reads: correctness, operation counts, and
// every reported metric with its unit.
func emit(w io.Writer, rec *record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if rec.Trace {
		specs = perLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		m, ok := rec.Metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %q was not measured", s.name)
		}
		metrics[s.name] = value{Value: m.Value, Unit: m.Unit}
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, metrics}
	full, err := json.Marshal(struct {
		Record *record `json:"record"`
	}{rec})
	if err != nil {
		return err
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, line)
	return err
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocMB is the cumulative size of Go heap allocations, in MiB.
func heapAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, in KiB
// on Linux) in MiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
