package bio

import (
	"context"
	"testing"

	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/sim"
)

// countInFunc tallies instruction kinds within one compiled function.
func countInFunc(t *testing.T, prog *isa.Program, fn string) (loads, stores, branches, cmovs int) {
	t.Helper()
	for _, f := range prog.Funcs {
		if f.Name != fn {
			continue
		}
		for pc := f.Entry; pc < f.End; pc++ {
			op := prog.Insts[pc].Op
			switch {
			case isa.IsLoad(op):
				loads++
			case isa.IsStore(op):
				stores++
			case isa.IsCondBranch(op):
				branches++
			case isa.IsCmov(op):
				cmovs++
			}
		}
		return
	}
	t.Fatalf("function %s not found", fn)
	return
}

// hotFunc names each transformable program's transformed kernel.
var hotFunc = map[string]string{
	"hmmsearch":    "vrow",
	"hmmpfam":      "vrow",
	"hmmcalibrate": "vrow",
	"predator":     "align_pass",
	"dnapenny":     "fitch_cost",
	"clustalw":     "forward_pass",
}

// TestTransformedKernelsGainCmovs asserts the paper's mechanism for
// every transformed program: the load-transformed kernel contains
// conditional moves and strictly fewer conditional branches than the
// original kernel; the original kernel contains no CMOVs in its
// guarded-store regions beyond what if-conversion legitimately finds.
func TestTransformedKernelsGainCmovs(t *testing.T) {
	for _, p := range Transformed() {
		fn := hotFunc[p.Name]
		orig, err := p.Compile(false, compiler.Default())
		if err != nil {
			t.Fatal(err)
		}
		trans, err := p.Compile(true, compiler.Default())
		if err != nil {
			t.Fatal(err)
		}
		_, _, ob, oc := countInFunc(t, orig, fn)
		_, _, tb, tc := countInFunc(t, trans, fn)
		t.Logf("%s/%s: original %d branches %d cmovs; transformed %d branches %d cmovs",
			p.Name, fn, ob, oc, tb, tc)
		if tc <= oc {
			t.Errorf("%s: transformed kernel gained no CMOVs (%d -> %d)", p.Name, oc, tc)
		}
		if tb >= ob {
			t.Errorf("%s: transformed kernel did not lose branches (%d -> %d)", p.Name, ob, tb)
		}
	}
}

// TestTransformedSpeedupsOnAlpha runs every transformable program on
// the Alpha model at test size: the ones whose transformation the
// paper found effective must show a positive cycle gain (predator's
// single hoisted load is allowed to be neutral, as in the paper's
// smallest results).
func TestTransformedSpeedupsOnAlpha(t *testing.T) {
	if testing.Short() {
		t.Skip("timing")
	}
	plat := platform.Alpha21264()
	for _, p := range Transformed() {
		opts := compiler.Options{Opt: compiler.Default().Opt}
		run := func(tr bool) uint64 {
			prog, err := p.Compile(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			model := pipeline.NewModel(plat.Pipeline)
			model.Bind(prog)
			if _, err := p.Run(context.Background(), prog, SizeTest, func(m *sim.Machine) {
				m.SetChunkSink(1<<14, model.ObserveChunk)
			}); err != nil {
				t.Fatal(err)
			}
			return model.Stats().Cycles
		}
		o, tr := run(false), run(true)
		speedup := float64(o)/float64(tr) - 1
		t.Logf("%s: %.1f%%", p.Name, 100*speedup)
		if p.Name == "predator" {
			if speedup < -0.15 {
				t.Errorf("predator transformation regressed badly: %.1f%%", 100*speedup)
			}
			continue
		}
		if speedup <= 0 {
			t.Errorf("%s: transformation not profitable on Alpha (%.1f%%)", p.Name, 100*speedup)
		}
	}
}

// TestClassBValidation validates every program's simulated output at
// the class-B scale (the characterization inputs). Slow; skipped with
// -short.
func TestClassBValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("class-B runs")
	}
	for _, p := range All() {
		if err := runVariant(p, false, SizeB, compiler.Default()); err != nil {
			t.Errorf("%s original: %v", p.Name, err)
		}
		if p.Transformable {
			if err := runVariant(p, true, SizeB, compiler.Default()); err != nil {
				t.Errorf("%s transformed: %v", p.Name, err)
			}
		}
	}
}

// TestRestrictKeepsOutputsCorrect: the kernels never actually alias
// their pointer arguments... except hmmsearch's emission arrays are
// both global and parameter views. Compiling the BioPerf programs
// under RestrictParams must keep outputs identical (the restrict
// contract holds for these call sites).
func TestRestrictKeepsOutputsCorrect(t *testing.T) {
	for _, name := range []string{"hmmsearch", "clustalw", "predator"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := compiler.Default()
		opts.Opt.RestrictParams = true
		if err := runVariant(p, false, SizeTest, opts); err != nil {
			t.Errorf("%s under restrict: %v", name, err)
		}
	}
}

// TestSourcesDiffer sanity-checks the registry: transformed sources
// differ from originals exactly for the six transformable programs.
func TestSourcesDiffer(t *testing.T) {
	for _, p := range All() {
		same := p.Source(false) == p.Source(true)
		if p.Transformable && same {
			t.Errorf("%s: transformed source identical to original", p.Name)
		}
		if !p.Transformable && !same {
			t.Errorf("%s: non-transformable program has a distinct transformed source", p.Name)
		}
	}
}

// TestAreaAndMetadata checks registry completeness.
func TestAreaAndMetadata(t *testing.T) {
	for _, p := range All() {
		if p.Area == "" {
			t.Errorf("%s: missing area", p.Name)
		}
		if p.Transformable && (p.LoadsConsidered == 0 || p.LinesInvolved == 0) {
			t.Errorf("%s: missing Table 6 metadata", p.Name)
		}
		if p.Bind == nil || p.Reference == nil {
			t.Errorf("%s: missing Bind/Reference", p.Name)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("ByName should reject unknown programs")
	}
}
