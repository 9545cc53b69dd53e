package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/trace"
)

// warm reads recorded traces back, in two ways. Set-up records the
// nine programs' v4 traces into files. Each pass then characterizes
// every program twice from its trace: exact replay, which decodes
// every column into the run-native engine, and sampled
// characterization, which scans the PC tokens, clusters intervals and
// replays only the representatives. It simulates nothing, so a decode
// change that helps one reader and hurts the other shows. The seed
// permutes the program order of every pass.
type warm struct {
	e      *env
	cfg    simpoint.Config
	progs  []*bio.Program
	isas   []*isa.Program
	files  []*os.File
	sizes  []int64
	order  []int
	dir    string
	sample map[string]string // program -> sampled profile hash of an untraced pass

	mu       sync.Mutex
	traced   int
	replayed uint64 // events the traced sampled passes replayed
	events   uint64 // events in the traces the traced sampled passes read
	maxErr   float64
	workers  int
}

func newWarm(e *env) workload {
	w := &warm{e: e, progs: bio.All(), sample: make(map[string]string)}
	w.cfg = simpoint.Config{IntervalSize: 1 << 18}
	if e.size == bio.SizeTest {
		// Test-size traces are too short for classB intervals; these
		// match the runner's own test-size sampling configuration.
		w.cfg = simpoint.Config{IntervalSize: 16384, WarmupEvents: 4096}
	}
	w.order = rand.New(rand.NewSource(e.seed)).Perm(len(w.progs))
	return w
}

// setup records every program's trace into a fresh directory through a
// v4 trace writer attached to a simulated machine.
func (w *warm) setup(ctx context.Context) error {
	w.close()
	dir, err := w.e.tempDir("warm-")
	if err != nil {
		return err
	}
	w.dir = dir
	n := len(w.progs)
	w.isas = make([]*isa.Program, n)
	w.files = make([]*os.File, n)
	w.sizes = make([]int64, n)
	s := runner.NewSession(w.e.jobs)
	return s.ForEach(ctx, n, func(i int) error {
		p := w.progs[i]
		prog, err := s.Compile(p, false, compiler.Default())
		if err != nil {
			return err
		}
		w.isas[i] = prog
		f, size, err := w.record(ctx, p, prog)
		w.files[i], w.sizes[i] = f, size
		return err
	})
}

func (w *warm) record(ctx context.Context, p *bio.Program, prog *isa.Program) (*os.File, int64, error) {
	m, err := sim.New(prog)
	if err != nil {
		return nil, 0, err
	}
	sz := w.e.size
	if err := p.Bind(m, sz); err != nil {
		return nil, 0, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	f, err := os.Create(filepath.Join(w.dir, p.Name+".trace"))
	if err != nil {
		return nil, 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	meta := trace.Meta{Program: p.Name, Fingerprint: runner.Fingerprint(p, false, compiler.Default()), Size: sz.String()}
	tw := trace.NewWriter(bw, meta, prog)
	m.AddBatchObserver(tw)
	res, err := m.RunContext(ctx)
	if err == nil {
		err = p.Validate(res, sz)
	}
	if err == nil {
		err = tw.Close()
	}
	if err == nil && tw.Events() != res.Instructions {
		err = fmt.Errorf("%s: trace recorded %d events, run committed %d", p.Name, tw.Events(), res.Instructions)
	}
	if err == nil {
		err = bw.Flush()
	}
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// warmResult is one program's outputs from a pass.
type warmResult struct {
	exact, sampled *loadchar.Analysis
	err            error
}

func (w *warm) pass(ctx context.Context, tr *tracer, parent, op int) func() {
	results := make([]warmResult, len(w.progs))
	if tr != nil {
		w.mu.Lock()
		w.traced++
		w.mu.Unlock()
	}
	for _, i := range w.order {
		results[i] = w.program(ctx, tr, parent, op, i)
	}
	return func() {
		for i, r := range results {
			w.check(tr != nil, w.progs[i].Name, r)
		}
	}
}

func (w *warm) program(ctx context.Context, tr *tracer, parent, op, i int) warmResult {
	prog := w.isas[i]
	var ir *trace.IndexedReader
	err := tr.span("trace.open", parent, op, func() (err error) {
		ir, err = trace.NewIndexedReader(w.files[i], w.sizes[i])
		return err
	})
	if err != nil {
		return warmResult{err: err}
	}
	var r warmResult
	if tr == nil {
		r.exact, r.err = runner.ReplayAnalyze(ctx, prog, ir, w.e.jobs)
		if r.err == nil {
			r.sampled, _, r.err = runner.SampledAnalyze(ctx, prog, ir, w.cfg, w.e.jobs)
		}
		return r
	}
	r.exact, r.err = w.replay(ctx, tr, parent, op, prog, ir)
	if r.err == nil {
		r.sampled, r.err = w.sampled(ctx, tr, parent, op, prog, ir)
	}
	return r
}

func (w *warm) check(traced bool, name string, r warmResult) {
	chk := w.e.chk
	if r.err != nil {
		chk.ops(2, fmt.Errorf("%s: %w", name, r.err))
		return
	}
	err := w.e.gold.checkProfile(name, w.e.size, r.exact)
	if ex := r.exact.Exec; err == nil && (ex.RequestedWorkers != w.e.jobs || ex.Workers < 1) {
		err = fmt.Errorf("%s: replay execution not recorded: %+v", name, ex)
	}
	chk.op(err)

	// The sampled profile is an approximation: it must stay within the
	// program's classB error budget, and the traced rebuild must match
	// the program's own sampled path exactly.
	_, maxErr := simpoint.ProfileError(r.exact, r.sampled)
	err = nil
	if tol, ok := simpoint.ToleranceClassB(name); ok && w.e.size == bio.SizeB && maxErr > tol {
		err = fmt.Errorf("%s: sampled error %.3f pp exceeds the %.3f pp budget", name, maxErr, tol)
	}
	h := profileHash(name, w.e.size, r.sampled)
	w.mu.Lock()
	if !traced {
		w.sample[name] = h
	} else {
		if want, ok := w.sample[name]; ok && want != h && err == nil {
			err = fmt.Errorf("%s: traced sampled profile differs from runner.SampledAnalyze", name)
		}
		w.maxErr = max(w.maxErr, maxErr)
		w.workers = r.exact.Exec.Workers
	}
	w.mu.Unlock()
	chk.op(err)
}

// replay is runner.ReplayAnalyze rebuilt from public parts, with the
// column source behind a shim that charges the analysis' waits for
// decoded chunks to trace.decode_wait.
func (w *warm) replay(ctx context.Context, tr *tracer, parent, op int, prog *isa.Program, ir *trace.IndexedReader) (*loadchar.Analysis, error) {
	n := ir.Chunks()
	jobs := w.e.jobs
	effective := max(1, jobs)
	reason := ""
	if g := runtime.GOMAXPROCS(0); effective > g {
		effective, reason = g, loadchar.SerialReasonGOMAXPROCS
	}
	if n < 2 && effective > 1 {
		effective, reason = 1, loadchar.SerialReasonSingleChunk
	}
	sp := tr.begin("loadchar.analyze_runs", parent, op)
	defer tr.end(sp)
	src := &timedSource{inner: ir.Columns(ctx, prog, 0, n, effective), a: tr.agg("trace.decode_wait", sp, op)}
	a, err := loadchar.AnalyzeRuns(ctx, prog, src, effective)
	src.Close()
	src.a.close()
	if err != nil {
		return nil, err
	}
	a.Exec.RequestedWorkers = jobs
	if reason != "" {
		a.Exec.SerialReason = reason
	}
	return a, nil
}

// sampled is runner.SampledAnalyze rebuilt from public parts: interval
// collection, the phase plan, and the representative replays on the
// same worker count, each a span.
func (w *warm) sampled(ctx context.Context, tr *tracer, parent, op int, prog *isa.Program, ir *trace.IndexedReader) (*loadchar.Analysis, error) {
	cfg := w.cfg.WithDefaults()
	jobs := w.e.jobs
	sp := tr.begin("runner.interval_replay", parent, op)
	defer tr.end(sp)
	var intervals []simpoint.Interval
	err := tr.span("simpoint.collect", sp, op, func() (err error) {
		intervals, err = simpoint.CollectTrace(ctx, prog, ir, cfg, jobs)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("collect intervals: %w", err)
	}
	var plan *simpoint.Plan
	err = tr.span("simpoint.plan", sp, op, func() (err error) {
		plan, err = simpoint.BuildPlan(intervals, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	deltas := make([]*loadchar.Snapshot, len(plan.Clusters))
	var replayed atomic.Uint64
	err = parallelEach(ctx, jobs, len(plan.Clusters), func(i int) error {
		c := plan.Clusters[i]
		var snap *loadchar.Snapshot
		err := tr.span("runner.interval_replay", sp, op, func() (err error) {
			var n uint64
			snap, n, err = replayInterval(ctx, prog, ir, c.Start, c.End, plan.Config.WarmupEvents)
			replayed.Add(n)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay interval [%d,%d): %w", c.Start, c.End, err)
		}
		snap.Scale(c.Weight)
		deltas[i] = snap
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := deltas[0]
	for _, d := range deltas[1:] {
		if err := merged.Merge(d); err != nil {
			return nil, fmt.Errorf("merge cluster snapshots: %w", err)
		}
	}
	a, err := loadchar.FromSnapshot(prog, merged)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.replayed += replayed.Load()
	w.events += ir.TotalEvents()
	w.mu.Unlock()
	return a, nil
}

// parallelEach runs fn for every index on up to jobs goroutines and
// returns the lowest-index error, as the runner's sampled path does.
func parallelEach(ctx context.Context, jobs, n int, fn func(i int) error) error {
	jobs = max(1, min(jobs, n))
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for g := 0; g < jobs; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayInterval characterizes the events in [start, end) with warmed
// state, as the runner's sampled path does: a fresh live analysis
// replays from the chunk boundary at or before start-warm, the
// snapshot taken as the stream crosses start is subtracted from the
// final one, and the difference is the interval's counts. It also
// returns how many events it fed the analysis.
func replayInterval(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, start, end, warm uint64) (*loadchar.Snapshot, uint64, error) {
	warmStart := uint64(0)
	if start > warm {
		warmStart = start - warm
	}
	n := ir.Chunks()
	lo := max(0, sort.Search(n, func(i int) bool { return ir.Base(i) > warmStart })-1)
	hi := sort.Search(n, func(i int) bool { return ir.Base(i) >= end })

	a := loadchar.New(prog)
	var pre *loadchar.Snapshot
	var fed uint64
	src := ir.Range(prog, lo, hi)
	defer src.Close()
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		evs, release, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		base := evs[0].Seq
		if base >= end {
			release()
			break
		}
		if base+uint64(len(evs)) > end {
			evs = evs[:end-base]
		}
		if pre == nil {
			if base >= start {
				pre = a.Snapshot()
			} else if base+uint64(len(evs)) > start {
				cut := start - base
				a.ObserveBatch(evs[:cut])
				fed += cut
				pre = a.Snapshot()
				evs = evs[cut:]
			}
		}
		if len(evs) > 0 {
			a.ObserveBatch(evs)
			fed += uint64(len(evs))
		}
		last := base + uint64(len(evs))
		release()
		if last >= end {
			break
		}
	}
	if pre == nil {
		return nil, 0, fmt.Errorf("trace ended before interval start %d", start)
	}
	final := a.Snapshot()
	if err := final.Sub(pre); err != nil {
		return nil, 0, err
	}
	return final, fed, nil
}

func (w *warm) layers(ctx context.Context, _ map[string]float64, m map[string]float64) {
	w.mu.Lock()
	if w.events > 0 {
		m["simpoint.replayed_fraction"] = float64(w.replayed) / float64(w.events)
	}
	m["simpoint.max_error_pp"] = w.maxErr
	m["loadchar.replay_workers"] = float64(w.workers)
	w.mu.Unlock()

	// Decode cost alone: drain every trace's column source with one
	// decode worker and nothing consuming the chunks.
	var events uint64
	var elapsed time.Duration
	for i, prog := range w.isas {
		ir, err := trace.NewIndexedReader(w.files[i], w.sizes[i])
		if err != nil {
			w.e.chk.assert(fmt.Errorf("%s: decode drain: %w", w.progs[i].Name, err))
			return
		}
		t0 := time.Now()
		src := ir.Columns(ctx, prog, 0, ir.Chunks(), 1)
		for {
			ch, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				src.Close()
				w.e.chk.assert(fmt.Errorf("%s: decode drain: %w", w.progs[i].Name, err))
				return
			}
			events += uint64(ch.N)
			release()
		}
		src.Close()
		elapsed += time.Since(t0)
	}
	if events > 0 {
		m["trace.decode_ns_per_event"] = float64(elapsed.Nanoseconds()) / float64(events)
	}
}

func (w *warm) close() {
	for _, f := range w.files {
		if f != nil {
			f.Close()
		}
	}
	w.files = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
