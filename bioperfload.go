// Package bioperfload reproduces "Load Instruction Characterization
// and Acceleration of the BioPerf Programs" (Ratanaworabhan &
// Burtscher, IISWC 2006) as a self-contained Go library: a MiniC
// compiler targeting an Alpha-flavored simulated machine, ports of the
// nine BioPerf applications (original and load-transformed), the
// load-characterization framework, cache/branch-predictor/pipeline
// models of the paper's four platforms, and generators for every table
// and figure in the evaluation.
//
// Quick start:
//
//	p, _ := bioperfload.Program("hmmsearch")
//	a, _ := bioperfload.Characterize(p, bioperfload.SizeTest)
//	fmt.Printf("loads: %.1f%% of instructions\n", a.Mix().LoadPct)
//
//	alpha := bioperfload.Platforms()[0]
//	orig, _ := bioperfload.Evaluate(p, alpha, bioperfload.SizeTest, false)
//	fast, _ := bioperfload.Evaluate(p, alpha, bioperfload.SizeTest, true)
//	fmt.Printf("speedup: %.1f%%\n",
//		(float64(orig.Cycles)/float64(fast.Cycles)-1)*100)
package bioperfload

import (
	"context"
	"fmt"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/ir"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/specx"
)

// Re-exported types: the facade exposes the internal packages' types
// under stable names so example programs and downstream tools can use
// them without reaching into internal paths.
type (
	// BenchProgram is one of the nine BioPerf applications.
	BenchProgram = bio.Program
	// Size selects the input scale (SizeTest/SizeB/SizeC).
	Size = bio.Size
	// Analysis is the single-pass load-characterization observer.
	Analysis = loadchar.Analysis
	// HotLoad is one Table 5-style profile row.
	HotLoad = loadchar.HotLoad
	// Platform is one modeled evaluation machine.
	Platform = platform.Platform
	// PipelineStats is a timing-model result.
	PipelineStats = pipeline.Stats
	// Executable is a compiled simulated-machine program.
	Executable = isa.Program
	// Machine is the functional simulator.
	Machine = sim.Machine
	// CompilerOptions selects optimization level and register budget.
	CompilerOptions = compiler.Options
	// SPECAnalog is one of the Figure 2 comparison programs.
	SPECAnalog = specx.Analog
	// Session is the shared-artifact analysis engine: a memoizing
	// compile/run cache plus a bounded worker pool. All facade
	// entry points delegate to a Session; hold one across calls to
	// compile and functionally simulate each kernel at most once.
	Session = runner.Session
	// Profile is one program's shared characterization run.
	Profile = runner.Profile
	// Fidelity selects the timing tier. Both tiers run the same
	// cycle-level pipeline model: FidelityFull over the whole
	// committed stream (the paper-reproduction tier), FidelityFast
	// over 1/32 sampled windows with the result extrapolated,
	// validated on speedup ratios (see internal/scoreboard/validate).
	Fidelity = pipeline.Fidelity
	// SessionStats reports a session's cache counters.
	SessionStats = runner.Stats
)

// Input sizes (class-B and class-C analogs per the paper).
const (
	SizeTest = bio.SizeTest
	SizeB    = bio.SizeB
	SizeC    = bio.SizeC
)

// Timing tiers. Select with Platform.WithFidelity before Evaluate.
const (
	FidelityFull = pipeline.FidelityFull
	FidelityFast = pipeline.FidelityFast
)

// ParseFidelity parses "full" or "fast" (empty defaults to full).
func ParseFidelity(s string) (Fidelity, error) { return pipeline.ParseFidelity(s) }

// Programs returns the nine BioPerf applications in the paper's order.
func Programs() []*BenchProgram { return bio.All() }

// Program returns one application by name.
func Program(name string) (*BenchProgram, error) { return bio.ByName(name) }

// TransformedPrograms returns the six applications the paper
// load-transforms (Section 3.3).
func TransformedPrograms() []*BenchProgram { return bio.Transformed() }

// SPECAnalogs returns the Figure 2 comparison programs.
func SPECAnalogs() []*SPECAnalog { return specx.All() }

// Platforms returns the four Table 7 machines in the paper's order:
// Alpha 21264, PowerPC G5, Pentium 4, Itanium 2.
func Platforms() []Platform { return platform.All() }

// PlatformByName returns one platform model.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// DefaultCompiler returns the paper's "-O3"-equivalent configuration.
func DefaultCompiler() CompilerOptions { return compiler.Default() }

// UnoptimizedCompiler returns an -O0 configuration (for ablations).
func UnoptimizedCompiler() CompilerOptions { return CompilerOptions{Opt: ir.O0()} }

// CompileMiniC compiles arbitrary MiniC source for the simulated
// machine with the default optimizing configuration.
func CompileMiniC(filename, source string) (*Executable, error) {
	return compiler.Compile(filename, source, compiler.Default())
}

// CompileMiniCWith compiles MiniC with explicit options.
func CompileMiniCWith(filename, source string, opts CompilerOptions) (*Executable, error) {
	return compiler.Compile(filename, source, opts)
}

// NewMachine loads an executable into a fresh functional simulator.
func NewMachine(p *Executable) (*Machine, error) { return sim.New(p) }

// RenderProfile renders a characterization as the canonical profile
// text shared by `cmd/bioperf -profile` and the bioperfd service.
func RenderProfile(name, size string, a *Analysis, hot int) string {
	return loadchar.RenderProfile(name, size, a, hot)
}

// NewSession creates a shared-artifact analysis session whose worker
// pool runs up to jobs simulations concurrently; jobs <= 0 selects
// GOMAXPROCS, jobs == 1 is fully sequential.
func NewSession(jobs int) *Session { return runner.NewSession(jobs) }

// Characterize runs one application (original sources, optimizing
// compiler) under the full load-characterization analysis. One-shot
// convenience over a fresh sequential Session; hold a Session directly
// to characterize several programs or reuse compiled artifacts.
func Characterize(p *BenchProgram, sz Size) (*Analysis, error) {
	prof, err := runner.NewSession(1).Characterize(context.Background(), p, sz)
	if err != nil {
		return nil, fmt.Errorf("characterize: %w", err)
	}
	return prof.Analysis, nil
}

// Evaluate runs one application (original or load-transformed) on a
// platform's timing model, compiling with that platform's register
// budget, and returns the cycle-level statistics.
func Evaluate(p *BenchProgram, plat Platform, sz Size, transformed bool) (PipelineStats, error) {
	return runner.NewSession(1).Evaluate(context.Background(), p, plat, sz, transformed)
}

// Speedup measures the load transformation's gain for one application
// on one platform: (original cycles / transformed cycles) - 1. The
// two timing runs share one session's compile cache.
func Speedup(p *BenchProgram, plat Platform, sz Size) (float64, error) {
	if !p.Transformable {
		return 0, fmt.Errorf("bioperfload: %s is not load-transformed in the paper", p.Name)
	}
	s := runner.NewSession(1)
	orig, err := s.Evaluate(context.Background(), p, plat, sz, false)
	if err != nil {
		return 0, err
	}
	trans, err := s.Evaluate(context.Background(), p, plat, sz, true)
	if err != nil {
		return 0, err
	}
	if trans.Cycles == 0 {
		return 0, fmt.Errorf("bioperfload: zero cycles")
	}
	return float64(orig.Cycles)/float64(trans.Cycles) - 1, nil
}
