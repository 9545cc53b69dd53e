package experiments

import (
	"context"
	"fmt"
	"strings"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// The ablations test the paper's causal claims directly, something
// the original authors could not do on fixed hardware:
//
//  1. L1 hit latency: the paper attributes the slowdown to the
//     multicycle L1 hit latency. On a hypothetical 1-cycle-L1 Alpha
//     the transformation's latency-hiding benefit should shrink
//     (only the branch-elimination benefit remains).
//  2. Compiler passes: disabling CMOV if-conversion on the
//     transformed sources isolates how much of the win is branch
//     elimination vs. load scheduling.
//  3. Branch predictor: with a perfect predictor the load-to-branch
//     penalty disappears, so the gap between original and
//     transformed narrows; with a poor (always-taken) predictor it
//     widens.

// AblationResult is one variant's original/transformed cycle pair.
type AblationResult struct {
	Variant     string
	CyclesOrig  uint64
	CyclesTrans uint64
}

// Speedup returns the transformation gain under this variant.
func (r AblationResult) Speedup() float64 {
	if r.CyclesTrans == 0 {
		return 0
	}
	return float64(r.CyclesOrig)/float64(r.CyclesTrans) - 1
}

// ablationVariant is one (pipeline config, compiler options) point of
// an ablation sweep.
type ablationVariant struct {
	name string
	cfg  pipeline.Config
	opts compiler.Options
}

// runVariants measures every variant's original/transformed cycle
// pair through one runner.EvaluateAll call, preserving variant order.
// Variants sharing compiler options share one functional run per
// direction: their models all observe the same stream.
func runVariants(ctx context.Context, s *runner.Session, p *bio.Program, variants []ablationVariant, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	// jobs[2i] is variant i's original, jobs[2i+1] its transformed run.
	jobs := make([]runner.TimingJob, 0, 2*len(variants))
	for _, v := range variants {
		cfg := v.cfg
		cfg.Fidelity = fid
		for _, tr := range []bool{false, true} {
			jobs = append(jobs, runner.TimingJob{Program: p, Config: cfg, Opts: v.opts, Transformed: tr})
		}
	}
	sts, err := s.EvaluateAll(ctx, jobs, sz)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(variants))
	for i, v := range variants {
		out[i] = AblationResult{Variant: v.name, CyclesOrig: sts[2*i].Cycles, CyclesTrans: sts[2*i+1].Cycles}
	}
	return out, nil
}

// AblateL1Latency measures the program on Alpha-like machines whose
// L1 load-to-use latency sweeps over the given values.
func AblateL1Latency(ctx context.Context, s *runner.Session, progName string, sz bio.Size, latencies []int, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	base := platform.Alpha21264()
	var variants []ablationVariant
	for _, lat := range latencies {
		cfg := base.Pipeline
		cfg.Cache.Lat.L1 = lat
		variants = append(variants, ablationVariant{
			name: fmt.Sprintf("L1=%dcyc", lat), cfg: cfg, opts: compiler.Default(),
		})
	}
	return runVariants(ctx, s, p, variants, sz, fid)
}

// AblatePredictor measures the program on the Alpha model under
// different branch predictors. The hybrid row is the Alpha baseline
// itself (pipeline.Config.Predictor "").
func AblatePredictor(ctx context.Context, s *runner.Session, progName string, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	var variants []ablationVariant
	for _, v := range []struct{ name, pred string }{{"hybrid", ""}, {"bimodal", "bimodal"}, {"always-taken", "always-taken"}} {
		cfg := platform.Alpha21264().Pipeline
		cfg.Predictor = v.pred
		variants = append(variants, ablationVariant{name: v.name, cfg: cfg, opts: compiler.Default()})
	}
	return runVariants(ctx, s, p, variants, sz, fid)
}

// AblatePasses measures the program with compiler passes selectively
// disabled (always on the Alpha model), isolating the contribution of
// if-conversion and of the local scheduler.
func AblatePasses(ctx context.Context, s *runner.Session, progName string, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	cfg := platform.Alpha21264().Pipeline
	passVariants := []struct {
		name string
		opts compiler.Options
	}{
		{"full-O2", compiler.Default()},
		{"no-ifconv", func() compiler.Options {
			o := compiler.Default()
			o.Opt.IfConvert = false
			return o
		}()},
		{"no-sched", func() compiler.Options {
			o := compiler.Default()
			o.Opt.Schedule = false
			return o
		}()},
		{"O0", func() compiler.Options {
			o := compiler.Default()
			o.Opt.Fold = false
			o.Opt.DCE = false
			o.Opt.IfConvert = false
			o.Opt.Schedule = false
			return o
		}()},
	}
	var variants []ablationVariant
	for _, v := range passVariants {
		variants = append(variants, ablationVariant{name: v.name, cfg: cfg, opts: v.opts})
	}
	return runVariants(ctx, s, p, variants, sz, fid)
}

// RenderAblation renders one ablation series.
func RenderAblation(title string, rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", title)
	fmt.Fprintf(&b, "%-14s %14s %14s %9s\n", "variant", "original", "transformed", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14d %14d %8.1f%%\n",
			r.Variant, r.CyclesOrig, r.CyclesTrans, 100*r.Speedup())
	}
	return b.String()
}

// AblateRestrict reproduces the paper's Itanium `restrict` experiment
// on any platform: the ORIGINAL sources compiled normally, the
// original sources compiled with restrict-qualified pointer
// parameters (which unblocks global load hoisting and scheduling),
// and the hand-transformed sources. The paper reports that on the
// Itanium the restrict baseline and the hand-transformed code perform
// similarly.
func AblateRestrict(ctx context.Context, s *runner.Session, progName, platName string, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	plat, err := platform.ByName(platName)
	if err != nil {
		return nil, err
	}
	plat.Pipeline.Fidelity = fid
	opts := compiler.Options{
		Opt:          compiler.Default().Opt,
		AllocIntRegs: plat.AllocIntRegs,
		AllocFPRegs:  plat.AllocFPRegs,
	}
	restrictOpts := opts
	restrictOpts.Opt.RestrictParams = true

	sts, err := s.EvaluateAll(ctx, []runner.TimingJob{
		{Program: p, Config: plat.Pipeline, Opts: opts},                    // baseline
		{Program: p, Config: plat.Pipeline, Opts: restrictOpts},            // original + restrict-qualified params
		{Program: p, Config: plat.Pipeline, Opts: opts, Transformed: true}, // hand-transformed
	}, sz)
	if err != nil {
		return nil, err
	}
	base, restr, trans := sts[0].Cycles, sts[1].Cycles, sts[2].Cycles
	return []AblationResult{
		{Variant: "baseline", CyclesOrig: base, CyclesTrans: base},
		{Variant: "baseline+restrict", CyclesOrig: base, CyclesTrans: restr},
		{Variant: "hand-transformed", CyclesOrig: base, CyclesTrans: trans},
	}, nil
}
