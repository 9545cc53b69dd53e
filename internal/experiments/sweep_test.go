package experiments

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/runner"
)

// renderSweepExact is RenderSweep followed by every grid point's
// speedups in shortest exact float form, so the golden pins each
// point's cycle ratios and not only their one-decimal rendering.
func renderSweepExact(rows []SweepRow) string {
	var b strings.Builder
	b.WriteString(RenderSweep(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "%s", r.Point.Name())
		for _, p := range bio.Transformed() {
			fmt.Fprintf(&b, " %s=%s", p.Name, strconv.FormatFloat(r.PerProgram[p.Name], 'g', -1, 64))
		}
		fmt.Fprintf(&b, " hmean=%s\n", strconv.FormatFloat(r.HarmonicMean, 'g', -1, 64))
	}
	return b.String()
}

// TestSweepFastGolden pins the 45-point fast-tier sweep at test size:
// every grid point's model rides the same sampled chunk sink of each
// (program, variant) run, the widest group the runner builds.
func TestSweepFastGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	rows, err := SweepSession(context.Background(), runner.NewSession(0), bio.SizeTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/sweep_fast_test.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweepExact(rows); got != string(want) {
		t.Errorf("fast-tier sweep at test size diverged from testdata/sweep_fast_test.golden:\n%s", got)
	}
}
