package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/runner"
)

// The experiment tests run at test size so the whole suite stays
// fast; the EXPERIMENTS.md numbers come from cmd/experiments at the
// class-B/C sizes.

func characterizeOnce(t *testing.T) []*ProgramProfile {
	t.Helper()
	profiles, err := runner.NewSession(0).CharacterizeAll(context.Background(), bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 9 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	return profiles
}

func TestFig1AndTable1(t *testing.T) {
	profiles := characterizeOnce(t)
	rows := Fig1(profiles)
	for _, r := range rows {
		sum := r.LoadPct + r.StorePct + r.BranchPct + r.OtherPct
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: class percentages sum to %f", r.Name, sum)
		}
		if r.LoadPct < 5 || r.LoadPct > 60 {
			t.Errorf("%s: implausible load%% %.1f", r.Name, r.LoadPct)
		}
	}
	t1 := Table1(profiles)
	byName := map[string]Table1Row{}
	for _, r := range t1 {
		byName[r.Name] = r
		if r.Instructions == 0 {
			t.Errorf("%s: zero instructions", r.Name)
		}
	}
	// Table 1 shape: promlk is the FP outlier, hmmsearch is integer.
	if byName["promlk"].FPPct < byName["predator"].FPPct ||
		byName["predator"].FPPct < byName["hmmsearch"].FPPct {
		t.Errorf("FP%% shape wrong: promlk=%.1f predator=%.1f hmmsearch=%.1f",
			byName["promlk"].FPPct, byName["predator"].FPPct, byName["hmmsearch"].FPPct)
	}
	out := RenderFig1(rows) + RenderTable1(t1)
	for _, want := range []string{"Figure 1", "Table 1", "hmmsearch", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestFig2Contrast(t *testing.T) {
	series, err := Fig2Session(context.Background(), runner.NewSession(0), bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("got %d series", len(series))
	}
	// Index of the 80-load point.
	idx80 := -1
	for i, n := range Fig2Points {
		if n == 80 {
			idx80 = i
		}
	}
	var bioMin, specMax float64 = 2, -1
	for _, s := range series {
		c := s.CoverageAt[idx80]
		if s.Suite == "bioperf" {
			if c < bioMin {
				bioMin = c
			}
		} else if c > specMax {
			specMax = c
		}
	}
	// The paper's Figure 2 contrast: every BioPerf curve is above
	// every SPEC-analog curve at 80 static loads.
	if bioMin <= specMax {
		t.Errorf("coverage contrast inverted: bioperf min %.2f <= analog max %.2f", bioMin, specMax)
	}
	if bioMin < 0.9 {
		t.Errorf("bioperf top-80 coverage %.2f, paper reports >90%%", bioMin)
	}
	if !strings.Contains(RenderFig2(series), "hmmsearch") {
		t.Error("rendering broken")
	}
}

func TestTable2(t *testing.T) {
	profiles := characterizeOnce(t)
	rows := Table2(profiles)
	for _, r := range rows {
		if r.L1Local > 0.06 {
			t.Errorf("%s: L1 miss rate %.3f too high (paper: ~1%%)", r.Name, r.L1Local)
		}
		if r.AMAT < 3 || r.AMAT > 4.5 {
			t.Errorf("%s: AMAT %.2f out of the hit-latency-dominated range", r.Name, r.AMAT)
		}
		if r.Overall > r.L1Local {
			t.Errorf("%s: overall %.4f exceeds L1 %.4f", r.Name, r.Overall, r.L1Local)
		}
	}
	if !strings.Contains(RenderTable2(rows), "average") {
		t.Error("rendering broken")
	}
}

func TestTable4(t *testing.T) {
	profiles := characterizeOnce(t)
	rows := Table4(profiles)
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.LoadToBranchPct < 0 || r.LoadToBranchPct > 100 {
			t.Errorf("%s: ld->br %.1f%%", r.Name, r.LoadToBranchPct)
		}
	}
	// Table 4a shape: the hmm codes lead, promlk trails.
	if byName["hmmsearch"].LoadToBranchPct <= byName["promlk"].LoadToBranchPct {
		t.Error("hmmsearch should have far more load-to-branch sequences than promlk")
	}
	if !strings.Contains(RenderTable4(rows), "ld->br") {
		t.Error("rendering broken")
	}
}

func TestTable5(t *testing.T) {
	rows, err := Table5Session(context.Background(), runner.NewSession(0), bio.SizeTest, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	vrow := 0
	for _, h := range rows {
		if h.Func == "vrow" {
			vrow++
		}
	}
	if vrow == 0 {
		t.Error("Table 5 should point into the P7Viterbi-analog kernel")
	}
	if !strings.Contains(RenderTable5(rows), "vrow") {
		t.Error("rendering broken")
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	rows := Table6()
	want := map[string][2]int{
		"dnapenny": {3, 10}, "hmmpfam": {16, 25}, "hmmsearch": {19, 30},
		"hmmcalibrate": {14, 25}, "predator": {1, 5}, "clustalw": {4, 10},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		w, ok := want[r.Name]
		if !ok {
			t.Errorf("unexpected program %s", r.Name)
			continue
		}
		if r.LoadsConsidered != w[0] || r.LinesInvolved != w[1] {
			t.Errorf("%s: (%d,%d), paper says (%d,%d)",
				r.Name, r.LoadsConsidered, r.LinesInvolved, w[0], w[1])
		}
	}
	if !strings.Contains(RenderTable6(rows), "static loads") {
		t.Error("rendering broken")
	}
}

func TestTable7Rendering(t *testing.T) {
	out := RenderTable7()
	for _, want := range []string{"alpha21264", "ppcg5", "pentium4", "itanium2"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 7 missing %s", want)
		}
	}
}

// TestParallelMatchesSequential is the golden determinism test: a
// parallel session's rendered tables and figures are byte-identical
// to the jobs=1 sequential reference.
func TestParallelMatchesSequential(t *testing.T) {
	render := func(jobs int) string {
		s := runner.NewSession(jobs)
		profiles, err := s.CharacterizeAll(context.Background(), bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		fig2, err := Fig2Session(context.Background(), s, bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(RenderFig1(Fig1(profiles)))
		b.WriteString(RenderFig2(fig2))
		b.WriteString(RenderTable2(Table2(profiles)))
		b.WriteString(RenderTable4(Table4(profiles)))
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Error("parallel session output differs from the sequential reference")
	}
}

func TestTable8AndFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	cells, err := Table8SessionFidelity(context.Background(), runner.NewSession(0), bio.SizeTest, pipeline.FidelityFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6*4 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if c.CyclesOrig == 0 || c.CyclesTrans == 0 {
			t.Errorf("%s/%s: zero cycles", c.Program, c.Platform)
		}
	}
	rows := Fig9(cells)
	if len(rows) != 4 {
		t.Fatalf("got %d Fig9 rows", len(rows))
	}
	byPlat := map[string]Fig9Row{}
	for _, r := range rows {
		byPlat[r.Platform] = r
	}
	// Shape checks at test size (weaker than class-B, where the
	// recorded EXPERIMENTS.md run additionally shows P4 trailing the
	// other out-of-order machines): the transformation must pay off
	// on every platform overall, and hmmsearch must speed up on the
	// Alpha.
	if byPlat["alpha21264"].PerProgram["hmmsearch"] <= 0 {
		t.Errorf("hmmsearch Alpha speedup = %.3f, want positive",
			byPlat["alpha21264"].PerProgram["hmmsearch"])
	}
	for _, r := range rows {
		if r.HarmonicMean <= 0 {
			t.Errorf("%s harmonic mean %.3f, want positive", r.Platform, r.HarmonicMean)
		}
	}
	out := RenderTable8(cells) + RenderFig9(Fig9(cells))
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "hmean") {
		t.Error("rendering broken")
	}
}

// TestTable8FullGoldenAndCrossTier pins the full tier's Table 8 at
// test size to a checked-in golden (the fast tier must never perturb
// the paper-reproduction numbers) and checks the cross-tier contract:
// both tiers report the exact functional instruction count for every
// cell, because the fast tier's sampling extrapolates cycles but
// takes instruction counts from the functional run.
func TestTable8FullGoldenAndCrossTier(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	ctx := context.Background()
	s := runner.NewSession(0)
	full, err := Table8SessionFidelity(ctx, s, bio.SizeTest, pipeline.FidelityFull)
	if err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile("testdata/table8_full_test.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderTable8(full); got != string(want) {
		t.Errorf("full-tier Table 8 at test size diverged from testdata/table8_full_test.golden:\n%s", got)
	}

	fast, err := Table8SessionFidelity(ctx, s, bio.SizeTest, pipeline.FidelityFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(full) {
		t.Fatalf("fast tier returned %d cells, full %d", len(fast), len(full))
	}
	for i := range full {
		fu, fa := full[i], fast[i]
		if fu.Program != fa.Program || fu.Platform != fa.Platform {
			t.Fatalf("cell %d order mismatch: full %s/%s, fast %s/%s",
				i, fu.Program, fu.Platform, fa.Program, fa.Platform)
		}
		if fa.StatsOrig.Instructions != fu.StatsOrig.Instructions {
			t.Errorf("%s/%s original: fast tier counted %d instructions, full %d",
				fa.Program, fa.Platform, fa.StatsOrig.Instructions, fu.StatsOrig.Instructions)
		}
		if fa.StatsTrans.Instructions != fu.StatsTrans.Instructions {
			t.Errorf("%s/%s transformed: fast tier counted %d instructions, full %d",
				fa.Program, fa.Platform, fa.StatsTrans.Instructions, fu.StatsTrans.Instructions)
		}
		if fa.CyclesOrig == 0 || fa.CyclesTrans == 0 {
			t.Errorf("%s/%s: fast tier produced zero cycles", fa.Program, fa.Platform)
		}
	}
}
