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
	"strings"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/trace"
)

// clusterGlyph maps a cluster id to one timeline character.
func clusterGlyph(c int) byte {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
	if c < 0 || c >= len(glyphs) {
		return '?'
	}
	return glyphs[c]
}

// cmdPhases renders the sampling decision for one (program, size): the
// interval-to-cluster timeline plus each cluster's representative and
// weight — the plan `-accuracy sampled` executes.
func cmdPhases(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf phases", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("program", "hmmsearch", "application to analyze")
	sizeFlag := fs.String("size", "classB", "input size (test|classB|classC)")
	interval := fs.Uint64("interval", 0, "events per interval (0 = default 1Mi)")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf phases: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	sz, err := parseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf phases: -size: %v\n", err)
		return 2
	}
	p, err := bio.ByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "bioperf phases: %v\n", err)
		return 2
	}

	s := runner.NewSession(*jobs)
	s.SetSimPoint(simpoint.Config{IntervalSize: *interval})
	plan, err := s.PhasePlan(context.Background(), p, sz)
	var de *simpoint.DegradeError
	if errors.As(err, &de) {
		fmt.Printf("%s %s: no phase plan — %s; characterization would run exact\n", p.Name, sz, de.Reason)
		return 0
	}
	if err != nil {
		fmt.Fprintf(stderr, "bioperf phases: %v\n", err)
		return 1
	}

	fmt.Printf("%s %s: %d events in %d intervals of %d -> %d phase(s)\n",
		p.Name, sz, plan.TotalEvents, len(plan.Intervals), plan.Config.IntervalSize, plan.K)
	for i, c := range plan.Clusters {
		rep := plan.Intervals[c.Rep]
		fmt.Printf("  phase %c: %3d interval(s), weight %4.1f%%, representative #%d [%d,%d)\n",
			clusterGlyph(i), len(c.Members), 100*float64(c.Weight)/float64(len(plan.Intervals)),
			rep.Index, c.Start, c.End)
	}
	fmt.Println("timeline (one glyph per interval):")
	const width = 64
	for lo := 0; lo < len(plan.Assign); lo += width {
		hi := lo + width
		if hi > len(plan.Assign) {
			hi = len(plan.Assign)
		}
		row := make([]byte, hi-lo)
		for i := lo; i < hi; i++ {
			row[i-lo] = clusterGlyph(plan.Assign[i])
		}
		fmt.Printf("  %8d  %s\n", lo, row)
	}
	return 0
}

// benchSamplingRow is one (program, size) cell of BENCH_sampling.json.
type benchSamplingRow struct {
	Program         string             `json:"program"`
	Size            string             `json:"size"`
	Instructions    uint64             `json:"instructions"`
	Intervals       int                `json:"intervals"`
	K               int                `json:"k"`
	ExactReplayMS   float64            `json:"exact_replay_ms"`
	SampledMS       float64            `json:"sampled_ms"`
	Speedup         float64            `json:"speedup"`
	MaxErrorPP      float64            `json:"max_error_pp"`
	Errors          map[string]float64 `json:"errors_pp"`
	TolerancePP     float64            `json:"tolerance_pp,omitempty"`
	WithinTolerance *bool              `json:"within_tolerance,omitempty"`
}

// benchSamplingFile is the bench-sampling JSON document.
type benchSamplingFile struct {
	Tool         string             `json:"tool"`
	IntervalSize uint64             `json:"interval_size"`
	Workers      int                `json:"workers"`
	Samples      int                `json:"samples"`
	Rows         []benchSamplingRow `json:"rows"`
	Generated    string             `json:"generated"`
}

// cmdBenchSampling measures sampled phase characterization against
// exact trace replay for each (program, size) and records accuracy
// (percentage-point error per headline metric) next to the speedup.
// Gates: -check-errors fails if any classB row exceeds its checked-in
// tolerance; -check-speedup N fails if any classC row is below Nx.
func cmdBenchSampling(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bioperf bench-sampling", flag.ContinueOnError)
	fs.SetOutput(stderr)
	progList := fs.String("programs", "", "comma-separated programs (default all nine)")
	sizesFlag := fs.String("sizes", "classB,classC", "comma-separated sizes to measure")
	jsonPath := fs.String("json", "BENCH_sampling.json", "output JSON path")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	samples := fs.Int("n", 3, "samples per timing (best-of-N)")
	interval := fs.Uint64("interval", 0, "events per interval (0 = default 1Mi; smoke runs shrink this)")
	checkErrors := fs.Bool("check-errors", false, "fail if a classB row exceeds its tolerance")
	checkSpeedup := fs.Float64("check-speedup", 0, "fail unless every classC speedup >= this (0 = no check)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bioperf bench-sampling: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *samples < 1 {
		fmt.Fprintf(stderr, "bioperf bench-sampling: -n: invalid sample count %d\n", *samples)
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	var progs []*bio.Program
	if *progList == "" {
		progs = bio.All()
	} else {
		for _, n := range strings.Split(*progList, ",") {
			p, err := bio.ByName(strings.TrimSpace(n))
			if err != nil {
				fmt.Fprintf(stderr, "bioperf bench-sampling: %v\n", err)
				return 2
			}
			progs = append(progs, p)
		}
	}
	var sizes []bio.Size
	for _, s := range strings.Split(*sizesFlag, ",") {
		sz, err := parseSize(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(stderr, "bioperf bench-sampling: -sizes: %v\n", err)
			return 2
		}
		sizes = append(sizes, sz)
	}
	if err := benchSampling(progs, sizes, *jsonPath, *interval, *jobs, *samples, *checkErrors, *checkSpeedup); err != nil {
		fmt.Fprintf(stderr, "bioperf bench-sampling: %v\n", err)
		return 1
	}
	return 0
}

func benchSampling(progs []*bio.Program, sizes []bio.Size, jsonPath string, interval uint64, jobs, samples int, checkErrors bool, checkSpeedup float64) error {
	ctx := context.Background()
	cfg := simpoint.Config{IntervalSize: interval}.WithDefaults()
	out := benchSamplingFile{
		Tool:         "bioperf bench-sampling",
		IntervalSize: cfg.IntervalSize,
		Workers:      jobs,
		Samples:      samples,
	}
	var failures []string
	for _, p := range progs {
		prog, err := p.Compile(false, compiler.Default())
		if err != nil {
			return err
		}
		fp := runner.Fingerprint(p, false, compiler.Default())
		for _, sz := range sizes {
			tf, err := os.CreateTemp("", "bioperf-sampling-*.trace")
			if err != nil {
				return err
			}
			res, _, err := record(p, prog, sz, fp, tf, "flate")
			if err != nil {
				tf.Close()
				os.Remove(tf.Name())
				return fmt.Errorf("%s %s: record: %w", p.Name, sz, err)
			}
			traceSize, err := tf.Seek(0, io.SeekEnd)
			if err == nil {
				_, err = trace.NewIndexedReader(tf, traceSize)
			}
			if err != nil {
				tf.Close()
				os.Remove(tf.Name())
				return fmt.Errorf("%s %s: index trace: %w", p.Name, sz, err)
			}

			var exact *loadchar.Analysis
			exactDur, err := bestOf(samples, func() (time.Duration, error) {
				ir, err := trace.NewIndexedReader(tf, traceSize)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				if exact, err = runner.ReplayAnalyze(ctx, prog, ir, jobs); err != nil {
					return 0, err
				}
				return time.Since(start), nil
			})
			if err == nil {
				var sampled *loadchar.Analysis
				var plan *simpoint.Plan
				var sampledDur time.Duration
				sampledDur, err = bestOf(samples, func() (time.Duration, error) {
					ir, err := trace.NewIndexedReader(tf, traceSize)
					if err != nil {
						return 0, err
					}
					start := time.Now()
					if sampled, plan, err = runner.SampledAnalyze(ctx, prog, ir, cfg, jobs); err != nil {
						return 0, err
					}
					return time.Since(start), nil
				})
				if err == nil {
					errs, max := simpoint.ProfileError(exact, sampled)
					row := benchSamplingRow{
						Program: p.Name, Size: sz.String(),
						Instructions: res.Instructions,
						Intervals:    len(plan.Intervals), K: plan.K,
						ExactReplayMS: exactDur.Seconds() * 1e3,
						SampledMS:     sampledDur.Seconds() * 1e3,
						Speedup:       exactDur.Seconds() / sampledDur.Seconds(),
						MaxErrorPP:    max, Errors: errs,
					}
					if sz == bio.SizeB {
						if tol, ok := simpoint.ToleranceClassB(p.Name); ok {
							within := max <= tol
							row.TolerancePP, row.WithinTolerance = tol, &within
							if checkErrors && !within {
								failures = append(failures,
									fmt.Sprintf("%s classB error %.2f pp exceeds tolerance %.2f pp", p.Name, max, tol))
							}
						}
					}
					if sz == bio.SizeC && checkSpeedup > 0 && row.Speedup < checkSpeedup {
						failures = append(failures,
							fmt.Sprintf("%s classC speedup %.2fx below required %.2fx", p.Name, row.Speedup, checkSpeedup))
					}
					out.Rows = append(out.Rows, row)
					fmt.Printf("%-13s %-6s %10d ev  %3d iv -> k=%-2d  exact %8.1f ms  sampled %8.1f ms  (%5.2fx)  max err %.2f pp\n",
						p.Name, sz, res.Instructions, row.Intervals, plan.K,
						row.ExactReplayMS, row.SampledMS, row.Speedup, max)
				}
			}
			tf.Close()
			os.Remove(tf.Name())
			if err != nil {
				return fmt.Errorf("%s %s: %w", p.Name, sz, err)
			}
		}
	}
	out.Generated = time.Now().UTC().Format(time.RFC3339)
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", jsonPath, len(out.Rows))
	if len(failures) > 0 {
		return fmt.Errorf("gates failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
