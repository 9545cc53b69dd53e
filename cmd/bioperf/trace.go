package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

func parseSize(s string) (bio.Size, error) {
	switch s {
	case "test":
		return bio.SizeTest, nil
	case "classB", "b", "B":
		return bio.SizeB, nil
	case "classC", "c", "C":
		return bio.SizeC, nil
	}
	return 0, fmt.Errorf("unknown size %q (test|classB|classC)", s)
}

// record simulates p at sz with a trace writer attached and returns
// the validated result. The trace is written to w and is only complete
// (footer present) if record returns nil error.
func record(p *bio.Program, prog *isa.Program, sz bio.Size, fp string, w io.Writer, compression string) (*sim.Result, *trace.Writer, error) {
	m, err := sim.New(prog)
	if err != nil {
		return nil, nil, err
	}
	if err := p.Bind(m, sz); err != nil {
		return nil, nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	tw := trace.NewWriter(w, trace.Meta{
		Program:     p.Name,
		Fingerprint: fp,
		Size:        sz.String(),
		Compression: compression,
	}, prog)
	m.AddBatchObserver(tw)
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	if err := p.Validate(res, sz); err != nil {
		return nil, nil, fmt.Errorf("%s: validation: %w", p.Name, err)
	}
	if err := tw.Close(); err != nil {
		return nil, nil, fmt.Errorf("%s: trace: %w", p.Name, err)
	}
	if tw.Events() != res.Instructions {
		return nil, nil, fmt.Errorf("%s: trace recorded %d events for %d instructions",
			p.Name, tw.Events(), res.Instructions)
	}
	return res, tw, nil
}

// cmdTrace records a committed-instruction trace of one program run to
// a file, for later offline replay with `bioperf replay`.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("program", "hmmsearch", "application to record")
	sizeFlag := fs.String("size", "test", "input size (test|classB|classC)")
	out := fs.String("o", "", "output path (default <program>-<size>.trace)")
	comp := fs.String("compression", "flate", "chunk codec: flate (smallest) or none (fastest replay)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf trace: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	sz, err := parseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: -size: %v\n", err)
		return 2
	}
	p, err := bio.ByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 2
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.trace", p.Name, sz)
	}

	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	if *comp != "flate" && *comp != "none" {
		fmt.Fprintf(stderr, "bioperf trace: -compression: unknown codec %q (flate|none)\n", *comp)
		return 2
	}
	fp := runner.Fingerprint(p, false, compiler.Default())
	res, tw, err := record(p, prog, sz, fp, f, *comp)
	if err != nil {
		f.Close()
		os.Remove(path)
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "bioperf trace: %v\n", err)
		return 1
	}
	st, _ := os.Stat(path)
	fmt.Fprintf(stdout, "%s: %d instructions -> %s (%d bytes, %.2f bits/event)\n",
		p.Name, res.Instructions, path, st.Size(),
		8*float64(st.Size())/float64(tw.Events()))
	return 0
}

// cmdReplay re-runs the load characterization from a recorded trace:
// no compilation beyond rebinding instruction metadata, no simulation.
// The trace replays through the sharded analyzer; a trace in a retired
// format is refused with a message to re-record it.
func cmdReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("j", 1, "replay shard workers (0 = GOMAXPROCS)")
	hot := fs.Int("hot", 6, "hot loads to print")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: bioperf replay [-j n] [-hot n] file.trace\n")
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "bioperf replay: -j: invalid worker count %d\n", *jobs)
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	ir, err := trace.NewIndexedReader(f, fi.Size())
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	meta := ir.Meta()
	p, err := bio.ByName(meta.Program)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: trace program: %v\n", err)
		return 1
	}
	if fp := runner.Fingerprint(p, false, compiler.Default()); meta.Fingerprint != fp {
		// The fingerprint comes from the file; it may be any length.
		short := meta.Fingerprint
		if len(short) > 12 {
			short = short[:12]
		}
		fmt.Fprintf(stderr, "bioperf replay: fingerprint mismatch: trace %q was recorded from a different %s build\n",
			short, p.Name)
		return 1
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	a, err := runner.ReplayAnalyze(context.Background(), prog, ir, *jobs)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf replay: %v\n", err)
		return 1
	}
	if e := a.Exec; e.RequestedWorkers > 1 && !e.Parallel() {
		fmt.Fprintf(stderr, "bioperf replay: note: %d workers requested, ran serial (%s)\n", e.RequestedWorkers, e.SerialReason)
	}
	fmt.Fprint(stdout, loadchar.RenderProfile(p.Name, meta.Size, a, *hot))
	return 0
}

// benchTraceFile is the bench-trace JSON document. The headline
// comparison is a cold store-backed characterization (compile +
// simulate + analyze + persist) against the same request served warm
// from the persisted artifacts by a fresh session; the raw replay
// timings document what trace decoding and re-analysis cost on their
// own. Every duration is the best of Samples runs, so one scheduler
// hiccup cannot flip a speedup ratio.
type benchTraceFile struct {
	Tool         string  `json:"tool"`
	Program      string  `json:"program"`
	Size         string  `json:"size"`
	Instructions uint64  `json:"instructions"`
	TraceBytes   int64   `json:"trace_bytes"`
	BitsPerEvent float64 `json:"bits_per_event"`
	Compression  string  `json:"compression"`
	Samples      int     `json:"samples"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`

	ColdCharacterizeMS  float64 `json:"cold_characterize_ms"`
	WarmCharacterizeMS  float64 `json:"warm_characterize_ms"`
	CharacterizeSpeedup float64 `json:"characterize_speedup"`
	ColdMS              float64 `json:"cold_ms"`
	RecordMS            float64 `json:"record_ms"`

	// Replay timings carry the Execution each measurement actually ran
	// with (the old schema recorded a single top-level "workers" that
	// did not describe any measurement).
	ReplayMS              float64            `json:"replay_ms"`
	ReplayExec            loadchar.Execution `json:"replay_exec"`
	ReplayMem             benchMem           `json:"replay_mem"`
	ParallelReplayMS      float64            `json:"parallel_replay_ms"`
	ParallelReplayExec    loadchar.Execution `json:"parallel_replay_exec"`
	ParallelReplayMem     benchMem           `json:"parallel_replay_mem"`
	ReplaySpeedup         float64            `json:"replay_speedup"`
	ParallelReplaySpeedup float64            `json:"parallel_replay_speedup"`

	// Scaling is the wall-clock scaling table: one replay per
	// GOMAXPROCS setting with a matching worker count, each row
	// reporting wall time, CPU time (user-equivalent work — the wall
	// savings must come from spreading roughly constant CPU work
	// across cores, not from doing less of it), and allocation stats
	// from the decode-slab pools.
	Scaling []benchScalingPoint `json:"replay_scaling"`

	ProfilesIdentical bool   `json:"profiles_identical"`
	Generated         string `json:"generated"`
}

// benchMem is the allocation delta across one measured region, read
// from runtime.MemStats. A healthy slab-recycling decode path keeps
// Mallocs near-flat between samples of the same measurement.
type benchMem struct {
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// benchScalingPoint is one row of the wall-clock scaling table.
type benchScalingPoint struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Exec        loadchar.Execution `json:"exec"`
	WallMS      float64            `json:"wall_ms"`
	CPUMS       float64            `json:"cpu_ms"`
	Speedup     float64            `json:"speedup"`      // cold simulate / this wall
	WallScaling float64            `json:"wall_scaling"` // 1-worker wall / this wall
	Mem         benchMem           `json:"mem"`
}

// measurement is one timed region: wall clock, process CPU time
// (user+system, from getrusage — on a multi-core run CPU stays near
// the 1-worker wall while wall drops), and the allocation delta.
type measurement struct {
	Wall time.Duration
	CPU  time.Duration
	Mem  benchMem
}

func (m measurement) WallMS() float64 { return m.Wall.Seconds() * 1e3 }

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureBest runs f n times and returns the sample with the minimum
// wall time. The minimum — not the mean — is the right statistic for a
// deterministic workload: every sample computes the same thing, so all
// variance is noise added on top and the fastest run is the closest
// estimate of the true cost. CPU and allocation stats come from that
// same fastest sample so the row is internally consistent.
func measureBest(n int, f func() error) (measurement, error) {
	best := measurement{Wall: -1}
	for i := 0; i < n; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		start := time.Now()
		if err := f(); err != nil {
			return measurement{}, err
		}
		wall := time.Since(start)
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		if best.Wall < 0 || wall < best.Wall {
			best = measurement{
				Wall: wall,
				CPU:  c1 - c0,
				Mem:  benchMem{Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc},
			}
		}
	}
	return best, nil
}

// bestOf runs f n times and returns the minimum duration.
func bestOf(n int, f func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// cmdBenchTrace measures cold vs store-served characterization (and
// raw trace replay) and writes the comparison as JSON. With -check N
// it exits non-zero when the characterize speedup falls below N.
func cmdBenchTrace(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf bench-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("program", "hmmsearch", "application to benchmark")
	sizeFlag := fs.String("size", "classB", "input size (test|classB|classC)")
	jsonPath := fs.String("json", "BENCH_trace.json", "output JSON path")
	jobs := fs.Int("j", 0, "parallel replay shard workers (0 = GOMAXPROCS)")
	samples := fs.Int("n", 3, "samples per timing (best-of-N)")
	check := fs.Float64("check", 0, "fail unless warm characterize speedup >= this (0 = no check)")
	minPar := fs.Float64("min-parallel-speedup", 0, "fail unless parallel replay speedup >= this (0 = no check)")
	minWall := fs.Float64("min-wall-scaling", 0,
		"fail unless the GOMAXPROCS=4 replay wall time beats 1-worker by >= this factor (0 = no check; skipped with a note when the host has fewer than 4 CPUs)")
	comp := fs.String("compression", "none", "trace codec for the replay benchmark (none|flate); none keeps inflate off the replay critical path")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf bench-trace: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *samples < 1 {
		fmt.Fprintf(stderr, "bioperf bench-trace: -n: invalid sample count %d\n", *samples)
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "bioperf bench-trace: -j: invalid worker count %d\n", *jobs)
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	sz, err := parseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf bench-trace: -size: %v\n", err)
		return 2
	}
	p, err := bio.ByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf bench-trace: %v\n", err)
		return 2
	}
	if *comp != "flate" && *comp != "none" {
		fmt.Fprintf(stderr, "bioperf bench-trace: -compression: unknown codec %q (flate|none)\n", *comp)
		return 2
	}
	if err := benchTrace(p, sz, *jsonPath, *jobs, *samples, *check, *minPar, *minWall, *comp); err != nil {
		fmt.Fprintf(stderr, "bioperf bench-trace: %v\n", err)
		return 1
	}
	return 0
}

func benchTrace(p *bio.Program, sz bio.Size, jsonPath string, jobs, samples int, check, minPar, minWall float64, comp string) error {
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		return err
	}
	fp := runner.Fingerprint(p, false, compiler.Default())
	ctx := context.Background()

	// Cold: simulate with the live analyzer attached — the baseline
	// characterization path.
	var (
		res  *sim.Result
		want string
	)
	cold, err := bestOf(samples, func() (time.Duration, error) {
		start := time.Now()
		m, err := sim.New(prog)
		if err != nil {
			return 0, err
		}
		if err := p.Bind(m, sz); err != nil {
			return 0, err
		}
		live := loadchar.New(prog)
		m.AddBatchObserver(live)
		r, err := m.Run()
		if err != nil {
			return 0, err
		}
		if err := p.Validate(r, sz); err != nil {
			return 0, err
		}
		d := time.Since(start)
		res = r
		want = loadchar.RenderProfile(p.Name, sz.String(), live, 10)
		return d, nil
	})
	if err != nil {
		return err
	}

	// Record: simulate again, this time writing the trace file. Each
	// sample rewrites the file from the start; the last one is the
	// trace the replay samples read.
	tf, err := os.CreateTemp("", "bioperf-bench-*.trace")
	if err != nil {
		return err
	}
	defer os.Remove(tf.Name())
	defer tf.Close()
	recDur, err := bestOf(samples, func() (time.Duration, error) {
		if err := tf.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := tf.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, _, err := record(p, prog, sz, fp, tf, comp); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	traceSize, err := tf.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}

	// Replay through the footer index — sequential first (one fused
	// decode-and-analyze loop), then sharded across jobs workers. Each
	// sample re-parses the index so no decoder state is carried over.
	var seq, par *loadchar.Analysis
	seqM, err := measureBest(samples, func() error {
		ir, err := trace.NewIndexedReader(tf, traceSize)
		if err != nil {
			return err
		}
		seq, err = runner.ReplayAnalyze(ctx, prog, ir, 1)
		return err
	})
	if err != nil {
		return err
	}
	parM, err := measureBest(samples, func() error {
		ir, err := trace.NewIndexedReader(tf, traceSize)
		if err != nil {
			return err
		}
		par, err = runner.ReplayAnalyze(ctx, prog, ir, jobs)
		return err
	})
	if err != nil {
		return err
	}

	// Wall-clock scaling table: the same replay with GOMAXPROCS pinned
	// to the worker count, so each row is what a w-core machine would
	// measure on the wall rather than w goroutines timeslicing the
	// cores the host happens to have. CPU time per row is the
	// user-equivalent work: near-constant CPU with falling wall is
	// real scaling, falling CPU would mean the rows computed less.
	prevProcs := runtime.GOMAXPROCS(0)
	var scaling []benchScalingPoint
	for _, w := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(w)
		var sa *loadchar.Analysis
		m, err := measureBest(samples, func() error {
			ir, err := trace.NewIndexedReader(tf, traceSize)
			if err != nil {
				return err
			}
			sa, err = runner.ReplayAnalyze(ctx, prog, ir, w)
			return err
		})
		if err != nil {
			runtime.GOMAXPROCS(prevProcs)
			return err
		}
		if got := loadchar.RenderProfile(p.Name, sz.String(), sa, 10); got != want {
			runtime.GOMAXPROCS(prevProcs)
			return fmt.Errorf("replay at %d workers produced a different profile", w)
		}
		scaling = append(scaling, benchScalingPoint{
			GOMAXPROCS: w,
			Exec:       sa.Exec,
			WallMS:     m.WallMS(),
			CPUMS:      m.CPU.Seconds() * 1e3,
			Speedup:    cold.Seconds() / m.Wall.Seconds(),
			Mem:        m.Mem,
		})
	}
	runtime.GOMAXPROCS(prevProcs)
	for i := range scaling {
		scaling[i].WallScaling = scaling[0].WallMS / scaling[i].WallMS
	}

	// Store-backed serving, the path runner.Session and bioperfd use:
	// a cold session on an empty store pays the full pipeline (compile
	// + simulate + analyze + record + persist), then a fresh session on
	// the same store must serve the identical profile from the
	// persisted artifacts without simulating. Every cold sample gets
	// its own empty store (a second run on a populated store would be
	// warm); the last one stays on disk for the warm samples.
	var (
		coldProf *runner.Profile
		storeDir string
	)
	coldChar, err := bestOf(samples, func() (time.Duration, error) {
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
		dir, err := os.MkdirTemp("", "bioperf-bench-store-")
		if err != nil {
			return 0, err
		}
		storeDir = dir
		st, err := store.Open(dir, 0)
		if err != nil {
			return 0, err
		}
		sess := runner.NewSessionWithStore(jobs, st)
		start := time.Now()
		prof, err := sess.Characterize(ctx, p, sz)
		d := time.Since(start)
		if err != nil {
			st.Close()
			return 0, err
		}
		coldProf = prof
		return d, st.Close()
	})
	if err != nil {
		if storeDir != "" {
			os.RemoveAll(storeDir)
		}
		return err
	}
	defer os.RemoveAll(storeDir)

	var warmProf *runner.Profile
	warmChar, err := bestOf(samples, func() (time.Duration, error) {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		sess := runner.NewSessionWithStore(jobs, st)
		start := time.Now()
		prof, err := sess.Characterize(ctx, p, sz)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if stats := sess.Stats(); stats.Runs != 0 {
			return 0, fmt.Errorf("warm characterize re-simulated: %+v", stats)
		}
		warmProf = prof
		return d, nil
	})
	if err != nil {
		return err
	}

	identical := loadchar.RenderProfile(p.Name, sz.String(), seq, 10) == want &&
		loadchar.RenderProfile(p.Name, sz.String(), par, 10) == want &&
		loadchar.RenderProfile(p.Name, sz.String(), coldProf.Analysis, 10) == want &&
		loadchar.RenderProfile(p.Name, sz.String(), warmProf.Analysis, 10) == want
	if !identical {
		return fmt.Errorf("replayed profiles differ from the live profile")
	}

	out := benchTraceFile{
		Tool:                  "bioperf bench-trace",
		Program:               p.Name,
		Size:                  sz.String(),
		Instructions:          res.Instructions,
		TraceBytes:            traceSize,
		BitsPerEvent:          8 * float64(traceSize) / float64(res.Instructions),
		Compression:           comp,
		Samples:               samples,
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		NumCPU:                runtime.NumCPU(),
		ColdCharacterizeMS:    coldChar.Seconds() * 1e3,
		WarmCharacterizeMS:    warmChar.Seconds() * 1e3,
		CharacterizeSpeedup:   coldChar.Seconds() / warmChar.Seconds(),
		ColdMS:                cold.Seconds() * 1e3,
		RecordMS:              recDur.Seconds() * 1e3,
		ReplayMS:              seqM.WallMS(),
		ReplayExec:            seq.Exec,
		ReplayMem:             seqM.Mem,
		ParallelReplayMS:      parM.WallMS(),
		ParallelReplayExec:    par.Exec,
		ParallelReplayMem:     parM.Mem,
		ReplaySpeedup:         cold.Seconds() / seqM.Wall.Seconds(),
		ParallelReplaySpeedup: cold.Seconds() / parM.Wall.Seconds(),
		Scaling:               scaling,
		ProfilesIdentical:     identical,
		Generated:             time.Now().UTC().Format(time.RFC3339),
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s %s: %d instructions, trace %d bytes (%.2f bits/event), best of %d, %d cpus\n",
		p.Name, sz, res.Instructions, traceSize, out.BitsPerEvent, samples, out.NumCPU)
	fmt.Printf("  cold characterize %8.1f ms\n", out.ColdCharacterizeMS)
	fmt.Printf("  warm characterize %8.1f ms  (%.2fx, store-served)\n", out.WarmCharacterizeMS, out.CharacterizeSpeedup)
	fmt.Printf("  cold simulate     %8.1f ms\n", out.ColdMS)
	fmt.Printf("  record            %8.1f ms\n", out.RecordMS)
	fmt.Printf("  replay            %8.1f ms  (%.2fx)\n", out.ReplayMS, out.ReplaySpeedup)
	fmt.Printf("  parallel replay   %8.1f ms  (%.2fx, j=%d requested, ran %d)\n",
		out.ParallelReplayMS, out.ParallelReplaySpeedup, jobs, par.Exec.Workers)
	for _, pt := range scaling {
		note := ""
		if pt.Exec.SerialReason != "" && pt.Exec.Workers < pt.Exec.RequestedWorkers {
			note = fmt.Sprintf(" [%s]", pt.Exec.SerialReason)
		}
		fmt.Printf("  scaling p=%d       wall %8.1f ms  cpu %8.1f ms  (%.2fx wall vs 1 worker, ran %d%s)\n",
			pt.GOMAXPROCS, pt.WallMS, pt.CPUMS, pt.WallScaling, pt.Exec.Workers, note)
	}
	fmt.Printf("  wrote %s\n", jsonPath)
	if check > 0 && out.CharacterizeSpeedup < check {
		return fmt.Errorf("warm characterize speedup %.2fx below required %.2fx", out.CharacterizeSpeedup, check)
	}
	if minPar > 0 && out.ParallelReplaySpeedup < minPar {
		return fmt.Errorf("parallel replay speedup %.2fx below required %.2fx", out.ParallelReplaySpeedup, minPar)
	}
	if minWall > 0 {
		if runtime.NumCPU() < 4 {
			fmt.Printf("  note: wall-scaling gate (>= %.2fx at GOMAXPROCS=4) skipped: host has %d CPUs\n",
				minWall, runtime.NumCPU())
		} else {
			var got float64
			for _, pt := range scaling {
				if pt.GOMAXPROCS == 4 {
					got = pt.WallScaling
				}
			}
			if got < minWall {
				return fmt.Errorf("wall scaling at GOMAXPROCS=4 is %.2fx, below required %.2fx", got, minWall)
			}
		}
	}
	return nil
}
