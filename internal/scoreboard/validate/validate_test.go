package validate

import (
	"math"
	"strings"
	"testing"

	"bioperfload/internal/bio"
)

func row(prog, plat string, err, tol float64) Row {
	return Row{Program: prog, Platform: plat, Transformable: true, Full: 10, Fast: 10 + err, Err: err, Tolerance: tol}
}

func TestCheck(t *testing.T) {
	cases := []struct {
		name string
		rows []Row
		bad  []string // program/platform pairs the error must name
	}{
		{"all within tolerance", []Row{
			row("hmmsearch", "alpha21264", 1, 6),
			row("hmmsearch", "itanium2", 6, 6), // at the budget is within it
			row("blast", "pentium4", 0, 10),
		}, nil},
		{"one over", []Row{
			row("hmmsearch", "alpha21264", 1, 6),
			row("predator", "pentium4", 4.5, 4),
		}, []string{"predator/pentium4"}},
		{"two over", []Row{
			row("dnapenny", "ppcg5", 30, 22),
			row("hmmsearch", "alpha21264", 1, 6),
			row("fasta", "itanium2", 27, 26),
		}, []string{"dnapenny/ppcg5", "fasta/itanium2"}},
		{"NaN error", []Row{
			row("blast", "alpha21264", math.NaN(), 10),
		}, []string{"blast/alpha21264"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Check(tc.rows)
			if len(tc.bad) == 0 {
				if err != nil {
					t.Fatalf("Check = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Check passed, want an error naming %v", tc.bad)
			}
			for _, b := range tc.bad {
				if !strings.Contains(err.Error(), b) {
					t.Errorf("Check error %q does not name %s", err, b)
				}
			}
			for _, r := range tc.rows {
				if r.OK() && strings.Contains(err.Error(), r.Program+"/"+r.Platform) {
					t.Errorf("Check error %q names in-tolerance row %s/%s", err, r.Program, r.Platform)
				}
			}
		})
	}
}

func TestRenderMarksFailures(t *testing.T) {
	rows := []Row{
		row("hmmsearch", "alpha21264", 1, 6),
		row("predator", "pentium4", 4.5, 4),
		row("blast", "itanium2", math.NaN(), 10),
		row("promlk", "ppcg5", 2, 9),
	}
	lines := strings.Split(strings.TrimRight(Render(rows), "\n"), "\n")
	if len(lines) != 2+len(rows) {
		t.Fatalf("Render printed %d lines, want %d:\n%s", len(lines), 2+len(rows), strings.Join(lines, "\n"))
	}
	for i, r := range rows {
		line := lines[2+i]
		if !strings.HasPrefix(line, r.Program) {
			t.Fatalf("line %d %q is not row %s", i, line, r.Program)
		}
		if failed := strings.HasSuffix(line, "FAIL"); failed == r.OK() {
			t.Errorf("row %s/%s (OK=%v) rendered as %q", r.Program, r.Platform, r.OK(), line)
		}
	}
}

// TestEveryProgramHasTolerance: Run refuses a program without a
// budget, so every registered program needs an explicit entry.
func TestEveryProgramHasTolerance(t *testing.T) {
	for _, p := range bio.All() {
		tol, ok := TolerancePP[p.Name]
		if !ok {
			t.Errorf("%s has no TolerancePP entry", p.Name)
			continue
		}
		if !(tol > 0) {
			t.Errorf("%s tolerance %v is not positive", p.Name, tol)
		}
	}
}
