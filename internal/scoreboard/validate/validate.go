// Package validate is the fast-tier acceptance harness: it runs every
// BioPerf program through both timing tiers and asserts the sampled
// fast tier reproduces the full model's observable conclusions within
// checked-in per-program tolerances.
//
// What "reproduces" means depends on the program:
//
//   - For the six transformable programs the paper's result is the
//     transformed/original speedup per platform (Table 8, Figure 9), so
//     the harness compares speedups tier against tier, in percentage
//     points.
//   - The three non-transformable programs have no second variant, so
//     the harness compares each platform's cycle count relative to the
//     Alpha baseline — the cross-platform discrimination a sweep relies
//     on — as a relative error in percent.
//
// Both tiers run the same pipeline model; the fast tier observes 1/32
// of the stream and extrapolates, so every disagreement the harness
// measures is sampling error, of two kinds. Phase aliasing explains
// hmmpfam, dnapenny and hmmcalibrate: a 64 Ki window every 2 Mi
// instructions lands on the wrong mix of phases, and no warm-up fixes
// that. Capacity warm-up explains fasta and blast: the small-L2
// machines need the accesses of the whole skipped gap, more than a
// window's own warm-up provides. Absolute cycle counts are NOT
// validated; the ratios are what the paper reports and what the fast
// tier exists to estimate.
package validate

import (
	"context"
	"fmt"
	"strings"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// TolerancePP is the checked-in per-program error budget, in
// percentage points for transformable programs (speedup error) and in
// percent for non-transformable ones (relative cycle-ratio error).
// The values were set from measured tier disagreement at both test and
// classB sizes (see DESIGN.md §10) with roughly a 25% margin; a model
// regression that widens any program's error past its budget fails
// `make validate-timing`. Every program needs an entry: Run refuses a
// program without one.
var TolerancePP = map[string]float64{
	"clustalw":     9,  // measured max 6.5 (pentium4, test)
	"dnapenny":     22, // measured max 17.2 (pentium4, classB)
	"hmmcalibrate": 8,  // measured max 6.2 (itanium2, classB)
	"hmmpfam":      27, // measured max 21.6 (pentium4, classB)
	"hmmsearch":    3,  // measured max 2.4 (ppcg5, test)
	"predator":     3,  // measured max 1.9 (pentium4, test)
	// Non-transformables: relative error of cycles(platform)/cycles(alpha).
	// fasta's classB run is capacity-miss-bound on the small-L2
	// machines, and 1/32 sampling under-warms those caches, so its
	// ratio error reaches ~21% there — the largest sampling artifact
	// in the suite. Its budget is kept, not raised, though the margin
	// is now below 25%.
	"blast":  10, // measured max 7.3 (itanium2, test)
	"fasta":  26, // measured max 21.3 (ppcg5, classB)
	"promlk": 3,  // measured max 2.2 (pentium4, classB)
}

// Row is one (program, platform) validation cell.
type Row struct {
	Program       string
	Platform      string
	Transformable bool
	// Full and Fast are speedups (transformable) or cycle ratios
	// relative to the Alpha platform (non-transformable), per tier.
	Full float64
	Fast float64
	// Err is |Fast-Full| in percentage points (transformable) or
	// 100*|Fast-Full|/Full (non-transformable).
	Err       float64
	Tolerance float64
}

// OK reports whether the row is within its tolerance. A NaN error is
// never OK.
func (r Row) OK() bool { return r.Err <= r.Tolerance }

// Run evaluates every program on every platform through both tiers and
// returns the comparison rows in (program, platform) order.
func Run(ctx context.Context, s *runner.Session, sz bio.Size) ([]Row, error) {
	progs := bio.All()
	plats := platform.All()
	for _, p := range progs {
		if _, ok := TolerancePP[p.Name]; !ok {
			return nil, fmt.Errorf("validate: %s has no tolerance budget in TolerancePP", p.Name)
		}
	}
	type cell struct{ full, fast pipeline.Stats }
	// cells[prog][plat][variant]; non-transformables use variant 0 only.
	cells := make([][][2]cell, len(progs))
	type unit struct {
		prog, plat, variant int
	}
	// jobs[2k] times units[k] on the full tier, jobs[2k+1] on the fast.
	var units []unit
	var jobs []runner.TimingJob
	for i, p := range progs {
		cells[i] = make([][2]cell, len(plats))
		for j, pl := range plats {
			for v, tr := range []bool{false, true} {
				if tr && !p.Transformable {
					continue
				}
				units = append(units, unit{i, j, v})
				for _, fid := range []pipeline.Fidelity{pipeline.FidelityFull, pipeline.FidelityFast} {
					jobs = append(jobs, runner.TimingJob{Program: p, Config: pl.WithFidelity(fid).Pipeline, Opts: pl.EvalOptions(), Transformed: tr})
				}
			}
		}
	}
	sts, err := s.EvaluateAll(ctx, jobs, sz)
	if err != nil {
		return nil, err
	}
	for k, u := range units {
		cells[u.prog][u.plat][u.variant] = cell{full: sts[2*k], fast: sts[2*k+1]}
	}

	speedup := func(orig, trans pipeline.Stats) float64 {
		if trans.Cycles == 0 {
			return 0
		}
		return float64(orig.Cycles)/float64(trans.Cycles) - 1
	}
	var rows []Row
	for i, p := range progs {
		tol := TolerancePP[p.Name]
		for j, pl := range plats {
			r := Row{Program: p.Name, Platform: pl.Name, Transformable: p.Transformable, Tolerance: tol}
			if p.Transformable {
				r.Full = 100 * speedup(cells[i][j][0].full, cells[i][j][1].full)
				r.Fast = 100 * speedup(cells[i][j][0].fast, cells[i][j][1].fast)
				r.Err = r.Fast - r.Full
				if r.Err < 0 {
					r.Err = -r.Err
				}
			} else {
				// Cross-platform ratio against the first (Alpha) platform.
				baseFull := float64(cells[i][0][0].full.Cycles)
				baseFast := float64(cells[i][0][0].fast.Cycles)
				if baseFull == 0 || baseFast == 0 {
					return nil, fmt.Errorf("validate: %s produced zero cycles on %s", p.Name, plats[0].Name)
				}
				r.Full = float64(cells[i][j][0].full.Cycles) / baseFull
				r.Fast = float64(cells[i][j][0].fast.Cycles) / baseFast
				r.Err = 100 * (r.Fast - r.Full) / r.Full
				if r.Err < 0 {
					r.Err = -r.Err
				}
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Check returns an error naming every out-of-tolerance row.
func Check(rows []Row) error {
	var bad []string
	for _, r := range rows {
		if !r.OK() {
			bad = append(bad, fmt.Sprintf("%s/%s err %.1f > tol %.1f", r.Program, r.Platform, r.Err, r.Tolerance))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("validate: %d cells out of tolerance: %s", len(bad), strings.Join(bad, "; "))
	}
	return nil
}

// Render formats the rows as the validate-timing report.
func Render(rows []Row) string {
	var b strings.Builder
	b.WriteString("Timing-tier validation: fast (1/32 sampled) vs full pipeline model\n")
	fmt.Fprintf(&b, "%-13s %-11s %-9s %9s %9s %7s %7s  %s\n",
		"program", "platform", "metric", "full", "fast", "err", "tol", "ok")
	for _, r := range rows {
		metric, unit := "ratio", "x"
		full, fast := r.Full, r.Fast
		if r.Transformable {
			metric, unit = "speedup", "%"
		}
		status := "ok"
		if !r.OK() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-13s %-11s %-9s %8.1f%s %8.1f%s %6.1f %6.1f  %s\n",
			r.Program, r.Platform, metric, full, unit, fast, unit, r.Err, r.Tolerance, status)
	}
	return b.String()
}
