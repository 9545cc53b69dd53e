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

// checkAblationGolden pins a full-tier ablation's rendering at test
// size to its checked-in golden, so regrouping the timing runs can
// never move a cycle count.
func checkAblationGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("full-tier ablation at test size diverged from testdata/%s:\n%s", name, got)
	}
}

// TestL1LatencyAblation checks the paper's causal claim directly:
// the transformation's benefit comes substantially from hiding the
// multicycle L1 hit latency, so on a hypothetical single-cycle-L1
// machine the speedup must shrink.
func TestL1LatencyAblation(t *testing.T) {
	rows, err := AblateL1Latency(context.Background(), runner.NewSession(0), "hmmsearch", bio.SizeTest, []int{1, 3, 5}, pipeline.FidelityFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	s1, s3, s5 := rows[0].Speedup(), rows[1].Speedup(), rows[2].Speedup()
	t.Logf("speedup: L1=1cyc %.1f%%, L1=3cyc %.1f%%, L1=5cyc %.1f%%",
		100*s1, 100*s3, 100*s5)
	if !(s1 < s3 && s3 < s5) {
		t.Errorf("speedup should grow with L1 latency: %.3f, %.3f, %.3f", s1, s3, s5)
	}
	if !strings.Contains(RenderAblation("L1", rows), "L1=3cyc") {
		t.Error("rendering broken")
	}
	checkAblationGolden(t, "ablation_l1_full_test.golden", RenderAblation("L1 hit latency sweep (Alpha model)", rows))
}

// TestPredictorAblation: with a worse predictor the mispredictions
// multiply and the branchy original suffers more, so the
// transformation gains more.
func TestPredictorAblation(t *testing.T) {
	rows, err := AblatePredictor(context.Background(), runner.NewSession(0), "hmmsearch", bio.SizeTest, pipeline.FidelityFull)
	if err != nil {
		t.Fatal(err)
	}
	checkAblationGolden(t, "ablation_predictor_full_test.golden", RenderAblation("branch predictor (Alpha model)", rows))
	byName := map[string]AblationResult{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	hy := byName["hybrid"].Speedup()
	at := byName["always-taken"].Speedup()
	t.Logf("speedup: hybrid %.1f%%, always-taken %.1f%%", 100*hy, 100*at)
	if at <= hy {
		t.Errorf("a poor predictor should amplify the transformation's benefit: hybrid %.3f, always-taken %.3f", hy, at)
	}
}

// TestPassAblation: disabling if-conversion must reduce the
// transformed code's advantage (the CMOVs are a large part of the
// win), and the ORIGINAL code must be essentially unaffected by
// if-conversion (its guarded stores cannot convert).
func TestPassAblation(t *testing.T) {
	rows, err := AblatePasses(context.Background(), runner.NewSession(0), "hmmsearch", bio.SizeTest, pipeline.FidelityFull)
	if err != nil {
		t.Fatal(err)
	}
	checkAblationGolden(t, "ablation_passes_full_test.golden", RenderAblation("compiler passes (Alpha model)", rows))
	byName := map[string]AblationResult{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full-O2"]
	noIC := byName["no-ifconv"]
	t.Logf("full-O2 speedup %.1f%%, no-ifconv speedup %.1f%%",
		100*full.Speedup(), 100*noIC.Speedup())
	if noIC.Speedup() >= full.Speedup() {
		t.Errorf("disabling if-conversion should reduce the transformed advantage: full %.3f, no-ifconv %.3f",
			full.Speedup(), noIC.Speedup())
	}
	// If-conversion barely changes the ORIGINAL code (its IF bodies
	// store to memory and cannot convert): within 5%.
	ratio := float64(noIC.CyclesOrig) / float64(full.CyclesOrig)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("if-conversion changed the original code's cycles by %.1f%%, expected ~0",
			100*(ratio-1))
	}
	// O0 is slower than O2 (the gap is modest in cycles because the
	// out-of-order core hides much of the redundant O0 work as ILP).
	if byName["O0"].CyclesOrig <= full.CyclesOrig {
		t.Errorf("O0 original (%d) should be slower than O2 (%d)",
			byName["O0"].CyclesOrig, full.CyclesOrig)
	}
}

// TestRestrictAblation reproduces the paper's restrict experiment and
// its two findings: on the in-order Itanium, restrict-qualified
// parameters help the baseline (the compiler may hoist loads
// globally), while "the restrict keyword does not help on the other
// three platforms" — on the out-of-order Alpha its effect is ~0. In
// both cases the hand transformation remains the strongest (it also
// eliminates the branches, which restrict cannot).
func TestRestrictAblation(t *testing.T) {
	s := runner.NewSession(0)
	var rendered string
	measure := func(plat string) (base, restr, trans uint64) {
		rows, err := AblateRestrict(context.Background(), s, "hmmsearch", plat, bio.SizeTest, pipeline.FidelityFull)
		if err != nil {
			t.Fatal(err)
		}
		rendered += RenderAblation("restrict parameters ("+plat+")", rows)
		t.Logf("%s: baseline %d, +restrict %d (%.1f%%), hand-transformed %d (%.1f%%)",
			plat, rows[0].CyclesTrans, rows[1].CyclesTrans,
			100*(float64(rows[0].CyclesTrans)/float64(rows[1].CyclesTrans)-1),
			rows[2].CyclesTrans,
			100*(float64(rows[0].CyclesTrans)/float64(rows[2].CyclesTrans)-1))
		return rows[0].CyclesTrans, rows[1].CyclesTrans, rows[2].CyclesTrans
	}

	base, restr, trans := measure("itanium2")
	if restr >= base {
		t.Errorf("itanium2: restrict should help the in-order baseline (%d -> %d)", base, restr)
	}
	if trans >= restr {
		t.Errorf("itanium2: the hand transformation should still beat restrict (%d vs %d)", trans, restr)
	}

	base, restr, trans = measure("alpha21264")
	// "Does not help": within a few percent of the baseline on the
	// out-of-order Alpha.
	ratio := float64(restr) / float64(base)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("alpha21264: restrict changed the baseline by %.1f%%, paper says ~0", 100*(1/ratio-1))
	}
	if trans >= base {
		t.Errorf("alpha21264: hand transformation should speed up the baseline")
	}
	checkAblationGolden(t, "ablation_restrict_full_test.golden", rendered)
}
