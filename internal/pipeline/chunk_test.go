package pipeline_test

import (
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runstream"
	"bioperfload/internal/scoreboard"
	"bioperfload/internal/sim"
)

// TestObserveChunkMatchesBatch is the chunk path's oracle: on every
// program at test size, original and transformed, on all four
// platforms with each predictor, a model fed the interpreter's chunks
// ends with the Stats of one fed the same run's event slabs, word for
// word. Both tiers are covered; the fast tier's sampled models are
// compared after Finalize.
//
// It is also the reuse differential: one more model per (platform,
// tier, predictor) lives across the whole loop and is Reset and
// rebound for each case, so from the second case on it has just timed
// another program. It must end each case with the Stats of the new
// chunk-fed model beside it.
func TestObserveChunkMatchesBatch(t *testing.T) {
	predictors := []string{"", "bimodal", "always-taken"}
	type machine struct {
		plat string
		fast bool
	}
	reused := make(map[machine][]*scoreboard.Model)
	for _, p := range bio.All() {
		for _, transformed := range []bool{false, true} {
			if transformed && !p.Transformable {
				continue
			}
			for _, plat := range platform.All() {
				prog, err := p.Compile(transformed, plat.EvalOptions())
				if err != nil {
					t.Fatal(err)
				}
				for _, fast := range []bool{false, true} {
					m, err := sim.New(prog)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Bind(m, bio.SizeTest); err != nil {
						t.Fatal(err)
					}
					batch := make([]*scoreboard.Model, len(predictors))
					chunk := make([]*scoreboard.Model, len(predictors))
					mk := machine{plat.Name, fast}
					if reused[mk] == nil {
						reused[mk] = make([]*scoreboard.Model, len(predictors))
					}
					again := reused[mk]
					for i, pr := range predictors {
						cfg := plat.Pipeline
						cfg.Predictor = pr
						batch[i], chunk[i] = scoreboard.NewModel(cfg), scoreboard.NewModel(cfg)
						chunk[i].Bind(prog)
						m.AddBatchObserver(batch[i])
						if again[i] == nil {
							again[i] = scoreboard.NewModel(cfg)
						}
						again[i].Reset()
						again[i].Bind(prog)
					}
					m.SetChunkSink(1<<14, func(ch *runstream.Chunk) {
						for i := range chunk {
							chunk[i].ObserveChunk(ch)
							again[i].ObserveChunk(ch)
						}
					})
					if fast {
						m.SetSampling(scoreboard.SampleObserve, scoreboard.SamplePeriod)
					}
					res, err := m.Run()
					if err != nil {
						t.Fatal(err)
					}
					for i, pr := range predictors {
						var want, got, reset pipeline.Stats
						if fast {
							batch[i].Finalize(res.Instructions)
							chunk[i].Finalize(res.Instructions)
							again[i].Finalize(res.Instructions)
							want, got, reset = batch[i].Stats(), chunk[i].Stats(), again[i].Stats()
						} else {
							want, got, reset = batch[i].Model.Stats(), chunk[i].Model.Stats(), again[i].Model.Stats()
						}
						if got != want || got.Instructions == 0 {
							t.Errorf("%s transformed=%v %s predictor=%q fast=%v: chunks give %+v, slabs %+v",
								p.Name, transformed, plat.Name, pr, fast, got, want)
						}
						if reset != got {
							t.Errorf("%s transformed=%v %s predictor=%q fast=%v: reset model gives %+v, new model %+v",
								p.Name, transformed, plat.Name, pr, fast, reset, got)
						}
					}
				}
			}
		}
	}
}
