package specx

import (
	"fmt"
	"testing"

	"bioperfload/internal/compiler"
	"bioperfload/internal/ir"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
)

// TestCrossConfigEquivalence is the analogs' correctness check: the
// printed output must be identical across optimization levels and
// register budgets.
func TestCrossConfigEquivalence(t *testing.T) {
	configs := []compiler.Options{
		{Opt: ir.O2()},
		{Opt: ir.O0()},
		{Opt: ir.O2(), AllocIntRegs: 8, AllocFPRegs: 8},
	}
	for _, a := range All() {
		var want string
		for ci, opts := range configs {
			res, err := a.Run(true, opts)
			if err != nil {
				t.Fatalf("%s config %d: %v", a.Name, ci, err)
			}
			got := fmt.Sprint(res.IntOutput, res.FPOutput)
			if ci == 0 {
				want = got
				if len(res.IntOutput) == 0 {
					t.Errorf("%s produced no output", a.Name)
				}
			} else if got != want {
				t.Errorf("%s config %d output %s, want %s", a.Name, ci, got, want)
			}
		}
	}
}

// TestFlatCoverage checks the Figure 2 property: the analogs' top-80
// static-load coverage is well below the BioPerf codes' >90%.
func TestFlatCoverage(t *testing.T) {
	for _, a := range All() {
		prog, err := a.Compile(true, compiler.Default())
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		if a.bind != nil {
			if err := a.bind(m, true); err != nil {
				t.Fatal(err)
			}
		}
		an := loadchar.New(prog)
		m.AddBatchObserver(an)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		cov := an.CoverageAt(80)
		n := an.StaticLoadCount()
		t.Logf("%s: %d static loads, top-80 coverage %.1f%%", a.Name, n, cov*100)
		if n < 100 {
			t.Errorf("%s has only %d static loads; not a flat-profile program", a.Name, n)
		}
		if cov > 0.85 {
			t.Errorf("%s top-80 coverage %.2f too concentrated for a SPEC analog", a.Name, cov)
		}
	}
}

// TestSynthesizerControlsSkew checks the ablation knob: higher skew
// concentrates coverage.
func TestSynthesizerControlsSkew(t *testing.T) {
	cov := func(skew float64) float64 {
		cfg := SynthConfig{Name: "s", NumFuncs: 24, LoadsPerFunc: 6,
			ArraySize: 32, Iters: 300, Skew: skew}
		prog, err := compiler.Compile("synth.mc", Synthesize(cfg), compiler.Default())
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(prog)
		if err != nil {
			t.Fatal(err)
		}
		an := loadchar.New(prog)
		m.AddBatchObserver(an)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return an.CoverageAt(30)
	}
	flat := cov(0)
	skewed := cov(3)
	if skewed <= flat {
		t.Errorf("skew 3 coverage %.3f should exceed skew 0 coverage %.3f", skewed, flat)
	}
}

func TestSynthesizerDefaults(t *testing.T) {
	src := Synthesize(SynthConfig{Name: "d", Iters: 10})
	prog, err := compiler.Compile("d.mc", src, compiler.Default())
	if err != nil {
		t.Fatalf("default synth does not compile: %v", err)
	}
	m, _ := sim.New(prog)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPowHelper(t *testing.T) {
	cases := []struct{ x, y, want, tol float64 }{
		{2, 0, 1, 0},
		{2, 1, 2, 0},
		{2, 2, 4, 0},
		{4, 0.5, 2, 0.1},
		{9, 0.5, 3, 0.15},
		{2, 1.5, 2.828, 0.15},
	}
	for _, c := range cases {
		got := pow(c.x, c.y)
		if got < c.want-c.tol-1e-9 || got > c.want+c.tol+1e-9 {
			t.Errorf("pow(%g,%g) = %g, want ~%g", c.x, c.y, got, c.want)
		}
	}
}
