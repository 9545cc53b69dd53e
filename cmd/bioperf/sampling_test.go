package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPhasesShowsChunkEdgeDegrade: `bioperf phases` prints the plan the
// sampled tier runs. Intervals shorter than a trace chunk put
// representative edges inside chunks, where the sampled path degrades
// to exact, so phases reports that degrade instead of a plan.
func TestPhasesShowsChunkEdgeDegrade(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"phases", "-program", "hmmsearch", "-size", "test", "-interval", "8192", "-j", "1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q)", code, errb.String())
	}
	if got := out.String(); !strings.Contains(got, "no phase plan") || !strings.Contains(got, "does not fall on trace chunk edges") ||
		!strings.Contains(got, "characterization would run exact") {
		t.Fatalf("phases printed %q, want the chunk-edge degrade", got)
	}
}
