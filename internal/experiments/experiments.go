// Package experiments regenerates every table and figure of the
// paper's evaluation: Figure 1 and Table 1 (instruction mix), Figure 2
// (static-load coverage vs SPEC-like analogs), Table 2 (cache
// behaviour), Table 4 (load-to-branch and branch-to-load sequences),
// Table 5 (hmmsearch hot-load profile), Table 6 (transformation
// inventory), Table 7 (platforms), Table 8 and Figure 9 (runtimes and
// speedups of the load-transformed code on the four modeled
// machines). Each experiment returns typed data plus a paper-style
// text rendering.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
	"bioperfload/internal/specx"
	"bioperfload/internal/trace"
)

// ProgramProfile is one program's characterization run, shared by
// every table and figure that reads the same (program, size) pair.
type ProgramProfile = runner.Profile

// CharacterizeSessionAccuracy characterizes the nine programs through
// the given session at an explicit accuracy tier, in deterministic
// (Table 1) order: exact reproduces the historical tables byte for
// byte (runner.Session.CharacterizeAll is its exact form); sampled
// trades bounded per-metric error for phase-sampled speed at
// 100x-scale inputs.
func CharacterizeSessionAccuracy(ctx context.Context, s *runner.Session, sz bio.Size, acc runner.Accuracy) ([]*ProgramProfile, error) {
	progs := bio.All()
	out := make([]*ProgramProfile, len(progs))
	err := s.ForEach(ctx, len(progs), func(i int) error {
		p, err := s.CharacterizeAccuracy(ctx, progs[i], sz, acc)
		out[i] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Figure 1 / Table 1 ---

// Fig1Row is one bar group of Figure 1.
type Fig1Row struct {
	Name                                   string
	LoadPct, StorePct, BranchPct, OtherPct float64
}

// Fig1 computes the instruction profile.
func Fig1(profiles []*ProgramProfile) []Fig1Row {
	var rows []Fig1Row
	for _, p := range profiles {
		m := p.Analysis.Mix()
		rows = append(rows, Fig1Row{
			Name: p.Name, LoadPct: m.LoadPct, StorePct: m.StorePct,
			BranchPct: m.BranchPct, OtherPct: m.OtherPct,
		})
	}
	return rows
}

// RenderFig1 renders Figure 1 as text.
func RenderFig1(rows []Fig1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1: instruction profile (% of executed instructions)\n")
	fmt.Fprintf(&b, "%-13s %7s %7s %8s %7s\n", "program", "loads", "stores", "cbranch", "other")
	var al, as, ab, ao float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %6.1f%% %6.1f%% %7.1f%% %6.1f%%\n",
			r.Name, r.LoadPct, r.StorePct, r.BranchPct, r.OtherPct)
		al += r.LoadPct
		as += r.StorePct
		ab += r.BranchPct
		ao += r.OtherPct
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-13s %6.1f%% %6.1f%% %7.1f%% %6.1f%%\n", "average", al/n, as/n, ab/n, ao/n)
	}
	return b.String()
}

// Table1Row is one Table 1 row.
type Table1Row struct {
	Name         string
	Instructions uint64
	FPPct        float64
}

// Table1 computes instruction counts and FP fractions.
func Table1(profiles []*ProgramProfile) []Table1Row {
	var rows []Table1Row
	for _, p := range profiles {
		rows = append(rows, Table1Row{
			Name:         p.Name,
			Instructions: p.Instructions,
			FPPct:        100 * p.Analysis.Mix().FPFraction,
		})
	}
	return rows
}

// RenderTable1 renders Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: executed instructions and floating-point fraction\n")
	fmt.Fprintf(&b, "%-13s %14s %8s\n", "program", "instructions", "FP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %14d %7.2f%%\n", r.Name, r.Instructions, r.FPPct)
	}
	return b.String()
}

// --- Figure 2 ---

// Fig2Series is one coverage curve.
type Fig2Series struct {
	Name  string
	Suite string // "bioperf" or "spec2000-analog"
	// CoverageAt[i] is the cumulative dynamic-load coverage of the
	// top Fig2Points[i] static loads.
	CoverageAt  []float64
	StaticLoads int
}

// Fig2Points are the x-axis sample points.
var Fig2Points = []int{1, 2, 5, 10, 20, 40, 80, 160, 320, 640}

// Fig2BioPrograms are the three representative BioPerf curves.
var Fig2BioPrograms = []string{"hmmsearch", "hmmpfam", "clustalw"}

// Fig2Session computes coverage curves for three representative
// BioPerf programs and the three SPEC CPU2000 analogs through the
// session: the BioPerf curves reuse the shared characterization runs
// (no re-simulation when the session already characterized them), and
// the three analogs execute on the worker pool.
func Fig2Session(ctx context.Context, s *runner.Session, sz bio.Size) ([]Fig2Series, error) {
	analogs := specx.All()
	out := make([]Fig2Series, len(Fig2BioPrograms)+len(analogs))
	small := sz != bio.SizeC
	err := s.ForEach(ctx, len(out), func(i int) error {
		if i < len(Fig2BioPrograms) {
			p, err := bio.ByName(Fig2BioPrograms[i])
			if err != nil {
				return err
			}
			prof, err := s.Characterize(ctx, p, sz)
			if err != nil {
				return err
			}
			out[i] = coverageSeries(prof.Name, "bioperf", prof.Analysis)
			return nil
		}
		an := analogs[i-len(Fig2BioPrograms)]
		m, err := an.Machine(small, compiler.Default())
		if err != nil {
			return err
		}
		a := loadchar.New(m.Program())
		m.SetChunkSink(trace.ChunkEvents, a.ObserveChunk)
		if _, err := m.Run(); err != nil {
			return fmt.Errorf("%s: %w", an.Name, err)
		}
		out[i] = coverageSeries(an.Name, "spec2000-analog", a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func coverageSeries(name, suite string, a *loadchar.Analysis) Fig2Series {
	s := Fig2Series{Name: name, Suite: suite, StaticLoads: a.StaticLoadCount()}
	for _, n := range Fig2Points {
		s.CoverageAt = append(s.CoverageAt, a.CoverageAt(n))
	}
	return s
}

// RenderFig2 renders the coverage curves.
func RenderFig2(series []Fig2Series) string {
	var b strings.Builder
	b.WriteString("Figure 2: cumulative dynamic-load coverage of the top-N static loads\n")
	fmt.Fprintf(&b, "%-11s %-16s %7s", "program", "suite", "static")
	for _, n := range Fig2Points {
		fmt.Fprintf(&b, " %6d", n)
	}
	b.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%-11s %-16s %7d", s.Name, s.Suite, s.StaticLoads)
		for _, c := range s.CoverageAt {
			fmt.Fprintf(&b, " %5.1f%%", 100*c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Table 2 ---

// Table2Row is one cache-performance row.
type Table2Row struct {
	Name    string
	L1Local float64
	L2Local float64
	Overall float64
	AMAT    float64
}

// Table2 computes the cache rows plus arithmetic and geometric means.
func Table2(profiles []*ProgramProfile) []Table2Row {
	var rows []Table2Row
	for _, p := range profiles {
		r := p.Analysis.CacheReport()
		rows = append(rows, Table2Row{
			Name: p.Name, L1Local: r.L1Local, L2Local: r.L2Local,
			Overall: r.Overall, AMAT: r.AMAT,
		})
	}
	return rows
}

// RenderTable2 renders Table 2 with the paper's average rows.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: cache performance (local miss rates and AMAT)\n")
	fmt.Fprintf(&b, "%-13s %8s %8s %9s %6s\n", "program", "L1", "L2", "overall", "AMAT")
	var sumL1, sumL2, sumOv, sumAM float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %7.2f%% %7.2f%% %8.3f%% %6.2f\n",
			r.Name, 100*r.L1Local, 100*r.L2Local, 100*r.Overall, r.AMAT)
		sumL1 += r.L1Local
		sumL2 += r.L2Local
		sumOv += r.Overall
		sumAM += r.AMAT
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-13s %7.2f%% %7.2f%% %8.3f%% %6.2f\n",
			"average", 100*sumL1/n, 100*sumL2/n, 100*sumOv/n, sumAM/n)
	}
	return b.String()
}

// --- Table 4 ---

// Table4Row is one Table 4(a)+(b) row.
type Table4Row struct {
	Name string
	loadchar.Sequences
}

// Table4 computes the sequence metrics.
func Table4(profiles []*ProgramProfile) []Table4Row {
	var rows []Table4Row
	for _, p := range profiles {
		rows = append(rows, Table4Row{Name: p.Name, Sequences: p.Analysis.Sequences()})
	}
	return rows
}

// RenderTable4 renders Table 4.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: (a) load-to-branch sequences and fed-branch misprediction;\n")
	b.WriteString("         (b) loads right after hard-to-predict (>=5%) branches\n")
	fmt.Fprintf(&b, "%-13s %13s %13s %15s\n", "program", "ld->br %", "fed-br mispr", "ld after hard%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12.1f%% %12.1f%% %14.1f%%\n",
			r.Name, r.LoadToBranchPct, 100*r.FedBranchMispredictRate, r.LoadAfterHardBranchPct)
	}
	return b.String()
}

// --- Table 5 ---

// Table5Session returns the hot-load profile of hmmsearch (top n
// loads), read out of the session's shared hmmsearch characterization
// run — no extra simulation when the run already happened for Figure
// 1/2 or Tables 1/2/4.
func Table5Session(ctx context.Context, s *runner.Session, sz bio.Size, n int) ([]loadchar.HotLoad, error) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		return nil, err
	}
	prof, err := s.Characterize(ctx, p, sz)
	if err != nil {
		return nil, err
	}
	return prof.Analysis.HotLoads(n), nil
}

// RenderTable5 renders the hot-load profile.
func RenderTable5(rows []loadchar.HotLoad) string {
	var b strings.Builder
	b.WriteString("Table 5: profile of the most frequently executed loads in hmmsearch\n")
	fmt.Fprintf(&b, "%-6s %9s %8s %10s %-12s %5s %s\n",
		"pc", "freq", "L1 miss", "br mispred", "function", "line", "file")
	for _, h := range rows {
		fmt.Fprintf(&b, "%-6d %8.2f%% %7.2f%% %9.2f%% %-12s %5d %s\n",
			h.PC, 100*h.Frequency, 100*h.L1MissRate, 100*h.BranchMispred,
			h.Func, h.Line, h.File)
	}
	return b.String()
}

// --- Table 6 ---

// Table6Row mirrors the paper's transformation inventory.
type Table6Row struct {
	Name            string
	LoadsConsidered int
	LinesInvolved   int
}

// Table6 lists the six transformed applications.
func Table6() []Table6Row {
	var rows []Table6Row
	for _, p := range bio.Transformed() {
		rows = append(rows, Table6Row{p.Name, p.LoadsConsidered, p.LinesInvolved})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// RenderTable6 renders Table 6.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table 6: static loads and source lines involved in the transformation\n")
	fmt.Fprintf(&b, "%-13s %12s %12s\n", "program", "static loads", "lines of C")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12d %12d\n", r.Name, r.LoadsConsidered, r.LinesInvolved)
	}
	return b.String()
}

// --- Table 7 ---

// RenderTable7 renders the platform inventory.
func RenderTable7() string {
	var b strings.Builder
	b.WriteString("Table 7: evaluation platforms (modeled)\n")
	for _, p := range platform.All() {
		fmt.Fprintf(&b, "%-11s %s\n", p.Name, p.Description)
	}
	return b.String()
}

// --- Table 8 / Figure 9 ---

// Table8Cell is one program x platform measurement.
type Table8Cell struct {
	Program     string
	Platform    string
	CyclesOrig  uint64
	CyclesTrans uint64
	Speedup     float64 // CyclesOrig/CyclesTrans - 1
	StatsOrig   pipeline.Stats
	StatsTrans  pipeline.Stats
}

// Table8SessionFidelity runs the six transformable programs, original
// and load-transformed, on all four platform models: 6 programs x 4
// platforms x 2 variants = 48 timing jobs on the given tier through one
// runner.EvaluateAll call. Platforms that share a register budget
// (Alpha and PowerPC compile identically) share one functional run per
// (program, variant), so either tier costs 36 runs. Cells come back in
// program-major, platform-minor order.
func Table8SessionFidelity(ctx context.Context, s *runner.Session, sz bio.Size, fid pipeline.Fidelity) ([]Table8Cell, error) {
	progs := bio.Transformed()
	plats := platform.All()
	// jobs[(i*2+v)*len(plats)+j] times program i, variant v, platform j.
	var jobs []runner.TimingJob
	for _, p := range progs {
		for _, tr := range []bool{false, true} {
			for _, pl := range plats {
				jobs = append(jobs, runner.TimingJob{Program: p, Config: pl.WithFidelity(fid).Pipeline, Opts: pl.EvalOptions(), Transformed: tr})
			}
		}
	}
	sts, err := s.EvaluateAll(ctx, jobs, sz)
	if err != nil {
		return nil, err
	}
	out := make([]Table8Cell, 0, len(progs)*len(plats))
	for i, p := range progs {
		for j, pl := range plats {
			so, st := sts[(i*2)*len(plats)+j], sts[(i*2+1)*len(plats)+j]
			cell := Table8Cell{
				Program: p.Name, Platform: pl.Name,
				CyclesOrig: so.Cycles, CyclesTrans: st.Cycles,
				StatsOrig: so, StatsTrans: st,
			}
			if st.Cycles > 0 {
				cell.Speedup = float64(so.Cycles)/float64(st.Cycles) - 1
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// RenderTable8 renders the cycle counts.
func RenderTable8(cells []Table8Cell) string {
	var b strings.Builder
	b.WriteString("Table 8: simulated cycles, original vs load-transformed\n")
	fmt.Fprintf(&b, "%-13s %-11s %14s %14s %9s\n",
		"program", "platform", "original", "transformed", "speedup")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-13s %-11s %14d %14d %8.1f%%\n",
			c.Program, c.Platform, c.CyclesOrig, c.CyclesTrans, 100*c.Speedup)
	}
	return b.String()
}

// Fig9Row is a per-platform speedup summary.
type Fig9Row struct {
	Platform string
	// PerProgram maps program name to speedup.
	PerProgram map[string]float64
	// HarmonicMean is the paper's summary statistic.
	HarmonicMean float64
}

// Fig9 computes per-platform speedups and harmonic means from the
// Table 8 cells.
func Fig9(cells []Table8Cell) []Fig9Row {
	byPlat := make(map[string][]Table8Cell)
	var order []string
	for _, c := range cells {
		if _, ok := byPlat[c.Platform]; !ok {
			order = append(order, c.Platform)
		}
		byPlat[c.Platform] = append(byPlat[c.Platform], c)
	}
	var out []Fig9Row
	for _, plat := range order {
		row := Fig9Row{Platform: plat, PerProgram: make(map[string]float64)}
		// Harmonic mean of the speedup ratios (orig/trans), reported
		// as a percentage gain, matching the paper's figure 9.
		var invSum float64
		n := 0
		for _, c := range byPlat[plat] {
			row.PerProgram[c.Program] = c.Speedup
			ratio := 1 + c.Speedup
			if ratio > 0 {
				invSum += 1 / ratio
				n++
			}
		}
		if n > 0 {
			row.HarmonicMean = float64(n)/invSum - 1
		}
		out = append(out, row)
	}
	return out
}

// RenderFig9 renders the speedup summary.
func RenderFig9(rows []Fig9Row) string {
	var progs []string
	if len(rows) > 0 {
		for p := range rows[0].PerProgram {
			progs = append(progs, p)
		}
		sort.Strings(progs)
	}
	var b strings.Builder
	b.WriteString("Figure 9: speedup of load-transformed over original code\n")
	fmt.Fprintf(&b, "%-11s", "platform")
	for _, p := range progs {
		fmt.Fprintf(&b, " %12s", p)
	}
	fmt.Fprintf(&b, " %9s\n", "hmean")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s", r.Platform)
		for _, p := range progs {
			fmt.Fprintf(&b, " %11.1f%%", 100*r.PerProgram[p])
		}
		fmt.Fprintf(&b, " %8.1f%%\n", 100*r.HarmonicMean)
	}
	return b.String()
}
