package experiments

import (
	"context"
	"fmt"
	"strings"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// The sweep experiment is the payoff of the fast tier: where the paper
// could evaluate four concrete machines, the sampled model's cost per
// machine config is low enough to grid the microarchitectural
// parameters the paper singles out — L1 load-to-use latency (the
// latency the transformation hides), issue width (how much independent
// work can cover it), and mispredict penalty (the pipeline-depth proxy
// for the load-to-branch cost) — across all six transformed programs.
// Every grid point rides the same twelve functional runs (six
// programs, two variants) through runner.EvaluateAll, so a 45-point
// grid costs little more than one fast Table 8 column.

// SweepPoint is one machine configuration of the grid, expressed as
// deltas from the Alpha 21264 baseline.
type SweepPoint struct {
	L1Lat             int // L1 load-to-use latency, cycles
	IssueWidth        int // instructions issued per cycle
	MispredictPenalty int // redirect cost, cycles (pipeline-depth proxy)
}

// Name renders the point compactly ("l1=3 w=4 mp=7").
func (p SweepPoint) Name() string {
	return fmt.Sprintf("l1=%d w=%d mp=%d", p.L1Lat, p.IssueWidth, p.MispredictPenalty)
}

// SweepGrid is the default grid: 5 L1 latencies x 3 issue widths x 3
// mispredict penalties = 45 machine points, bracketing the paper's
// four platforms (L1 1..3 cycles, widths 3..6, penalties 6..20).
func SweepGrid() []SweepPoint {
	var pts []SweepPoint
	for _, l1 := range []int{1, 2, 3, 4, 5} {
		for _, w := range []int{2, 4, 8} {
			for _, mp := range []int{7, 13, 20} {
				pts = append(pts, SweepPoint{L1Lat: l1, IssueWidth: w, MispredictPenalty: mp})
			}
		}
	}
	return pts
}

// SweepRow is one grid point's speedups across the transformed
// programs.
type SweepRow struct {
	Point        SweepPoint
	PerProgram   map[string]float64 // program -> speedup (orig/trans - 1)
	HarmonicMean float64            // Figure 9's summary statistic
}

// SweepSession measures every grid point on the fast tier. The grid
// always runs sampled — a 45-point full-stream sweep would cost ~45x
// a full Table 8 column and is exactly the workload the fast tier
// exists for — and all points share one functional run per
// (program, variant) at the default register budget.
func SweepSession(ctx context.Context, s *runner.Session, sz bio.Size, points []SweepPoint) ([]SweepRow, error) {
	if len(points) == 0 {
		points = SweepGrid()
	}
	progs := bio.Transformed()
	base := platform.Alpha21264()
	cfgs := make([]pipeline.Config, len(points))
	for i, pt := range points {
		c := base.Pipeline
		c.Name = "sweep-" + pt.Name()
		c.Cache.Lat.L1 = pt.L1Lat
		c.IssueWidth = pt.IssueWidth
		c.MispredictPenalty = pt.MispredictPenalty
		c.Fidelity = pipeline.FidelityFast
		cfgs[i] = c
	}
	// jobs[(i*2+v)*len(points)+x] times program i, variant v, point x.
	var jobs []runner.TimingJob
	for _, p := range progs {
		for _, tr := range []bool{false, true} {
			for _, c := range cfgs {
				jobs = append(jobs, runner.TimingJob{Program: p, Config: c, Opts: base.EvalOptions(), Transformed: tr})
			}
		}
	}
	sts, err := s.EvaluateAll(ctx, jobs, sz)
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(points))
	for x, pt := range points {
		row := SweepRow{Point: pt, PerProgram: make(map[string]float64, len(progs))}
		var invSum float64
		n := 0
		for i, p := range progs {
			orig, trans := sts[(i*2)*len(points)+x].Cycles, sts[(i*2+1)*len(points)+x].Cycles
			var sp float64
			if trans > 0 {
				sp = float64(orig)/float64(trans) - 1
			}
			row.PerProgram[p.Name] = sp
			if ratio := 1 + sp; ratio > 0 {
				invSum += 1 / ratio
				n++
			}
		}
		if n > 0 {
			row.HarmonicMean = float64(n)/invSum - 1
		}
		rows[x] = row
	}
	return rows, nil
}

// RenderSweep renders the grid with per-program speedups and the
// harmonic mean, flagging the best and worst points.
func RenderSweep(rows []SweepRow) string {
	progs := make([]string, 0, 6)
	for _, p := range bio.Transformed() {
		progs = append(progs, p.Name)
	}
	best, worst := 0, 0
	for i, r := range rows {
		if r.HarmonicMean > rows[best].HarmonicMean {
			best = i
		}
		if r.HarmonicMean < rows[worst].HarmonicMean {
			worst = i
		}
	}
	var b strings.Builder
	b.WriteString("Sweep: transformation speedup across the machine grid (fast tier)\n")
	fmt.Fprintf(&b, "%-15s", "machine")
	for _, p := range progs {
		fmt.Fprintf(&b, " %12s", p)
	}
	fmt.Fprintf(&b, " %9s\n", "hmean")
	for i, r := range rows {
		fmt.Fprintf(&b, "%-15s", r.Point.Name())
		for _, p := range progs {
			fmt.Fprintf(&b, " %11.1f%%", 100*r.PerProgram[p])
		}
		fmt.Fprintf(&b, " %8.1f%%", 100*r.HarmonicMean)
		switch i {
		case best:
			b.WriteString("  <- best")
		case worst:
			b.WriteString("  <- worst")
		}
		b.WriteString("\n")
	}
	return b.String()
}
