package runner_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/runner"
)

// table8Renders pins, for each timing schema, the sha256 of the
// test-size Table 8 render on the full and the fast tier.
var table8Renders = map[int][2]string{
	1: {
		"2a6dadfdff27dcaa8ed18ccf0a005854712ae34f1a18b362807ef634c16dfe8a",
		"4df5256db7d8c969f3c3d1174263761804c26dd844e2bf0bf756de7ad29c8de4",
	},
}

// TestTimingSchemaPinsTable8 ties the timing schema to the cycles it
// names. Memoized, stored and peer timing results are served only
// under the schema they were computed with, so a change that moves
// any cycle count must bump timingSchema and record its renders here;
// moving cycles without a bump fails. Each tier runs in its own
// session, which must build no more timing models than the model free
// list allows (checkModelsBuilt).
func TestTimingSchemaPinsTable8(t *testing.T) {
	if testing.Short() {
		t.Skip("timing grid")
	}
	want, ok := table8Renders[runner.TimingSchema]
	if !ok {
		t.Fatalf("timing schema %d has no pinned Table 8 renders", runner.TimingSchema)
	}
	for i, fid := range []pipeline.Fidelity{pipeline.FidelityFull, pipeline.FidelityFast} {
		s := runner.NewSession(0)
		cells, err := experiments.Table8SessionFidelity(context.Background(), s, bio.SizeTest, fid)
		if err != nil {
			t.Fatal(err)
		}
		checkModelsBuilt(t, s, s.Jobs(), fid.String())
		sum := sha256.Sum256([]byte(experiments.RenderTable8(cells)))
		if got := hex.EncodeToString(sum[:]); got != want[i] {
			t.Errorf("%s-tier Table 8 render is %s; schema %d pins %s (bump timingSchema if the cycles moved on purpose)",
				fid, got, runner.TimingSchema, want[i])
		}
	}
}
