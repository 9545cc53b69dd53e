package runner_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// TestEvaluateAllReusesModels times test-size Table 8 on the fast tier
// through one EvaluateAll at 1, 2 and 4 workers. The render must match
// the schema's pinned one, so models reset and rebound from the call's
// free list time exactly as new ones; and the call must build at most
// workers x (distinct configs) models — at one worker, exactly one per
// config — where one model per job would build 48. The full tier's
// render and count are checked the same way by
// TestTimingSchemaPinsTable8 (its full-tier runs take most of a minute
// under -race, so they run once).
func TestEvaluateAllReusesModels(t *testing.T) {
	want := table8Renders[runner.TimingSchema][1]
	for _, jobs := range []int{1, 2, 4} {
		s := runner.NewSession(jobs)
		cells, err := experiments.Table8SessionFidelity(context.Background(), s, bio.SizeTest, pipeline.FidelityFast)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(experiments.RenderTable8(cells)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("jobs %d: fast-tier Table 8 render %s, pinned %s", jobs, got, want)
		}
		checkModelsBuilt(t, s, jobs, "fast")
	}
}

// checkModelsBuilt fails unless the session's timing calls built at
// most jobs models per platform config, and exactly one per config at
// one worker.
func checkModelsBuilt(t *testing.T, s *runner.Session, jobs int, tier string) {
	t.Helper()
	configs := len(platform.All())
	built := int(s.ModelsBuilt())
	if built > jobs*configs || (jobs == 1 && built != configs) {
		t.Errorf("jobs %d %s tier: built %d timing models, want at most %d (exactly %d at one worker)",
			jobs, tier, built, jobs*configs, configs)
	}
}
