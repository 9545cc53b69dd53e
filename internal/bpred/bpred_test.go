package bpred

import (
	"math/rand"
	"testing"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	if c.dec() != 0 {
		t.Error("dec below 0")
	}
	c = 3
	if c.inc() != 3 {
		t.Error("inc above 3")
	}
	if !counter(2).taken() || counter(1).taken() {
		t.Error("threshold wrong")
	}
}

func TestStatic(t *testing.T) {
	at := &Static{Taken: true}
	ant := &Static{Taken: false}
	if !at.Predict(1) || ant.Predict(1) {
		t.Error("static predictions wrong")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal()
	for i := 0; i < 10; i++ {
		b.Update(7, false)
	}
	if b.Predict(7) {
		t.Error("bimodal did not learn not-taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(7, true)
	}
	if !b.Predict(7) {
		t.Error("bimodal did not relearn taken bias")
	}
	// Other branches unaffected.
	if !b.Predict(8) {
		t.Error("cold branch should default taken")
	}
}

func TestHybridLearnsLoopPattern(t *testing.T) {
	// A loop branch taken 7 times then not taken, repeating. Local
	// history must learn the exit perfectly after warmup.
	h := NewPaperHybrid()
	tr := NewTracker(h)
	warm := 40
	var missesAfterWarmup uint64
	iter := 0
	for rep := 0; rep < 200; rep++ {
		for i := 0; i < 8; i++ {
			taken := i < 7
			mis := tr.Observe(1, taken)
			if iter >= warm*8 && mis {
				missesAfterWarmup++
			}
			iter++
		}
	}
	if missesAfterWarmup > 0 {
		t.Errorf("hybrid missed %d times on a period-8 loop after warmup", missesAfterWarmup)
	}
}

func TestHybridBiasedBranch(t *testing.T) {
	h := NewPaperHybrid()
	tr := NewTracker(h)
	for i := 0; i < 1000; i++ {
		tr.Observe(5, true)
	}
	if r := tr.Stats(5).MispredictRate(); r > 0.01 {
		t.Errorf("always-taken branch mispredicted at %f", r)
	}
}

func TestHybridRandomBranchIsHard(t *testing.T) {
	h := NewPaperHybrid()
	tr := NewTracker(h)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		tr.Observe(9, rng.Intn(2) == 0)
	}
	r := tr.Stats(9).MispredictRate()
	if r < 0.30 {
		t.Errorf("random branch mispredict rate = %f, want >= 0.30", r)
	}
}

func TestHybridNoAliasing(t *testing.T) {
	// Two branches with opposite fixed behaviour must not disturb
	// each other (per-static-branch state, the paper's requirement).
	h := NewPaperHybrid()
	tr := NewTracker(h)
	for i := 0; i < 2000; i++ {
		tr.Observe(100, true)
		tr.Observe(200, false)
	}
	if r := tr.Stats(100).MispredictRate(); r > 0.02 {
		t.Errorf("branch 100 rate %f", r)
	}
	if r := tr.Stats(200).MispredictRate(); r > 0.02 {
		t.Errorf("branch 200 rate %f", r)
	}
}

func TestHybridCorrelatedBranches(t *testing.T) {
	// Branch B always goes the same way as branch A did: global
	// history must capture it even though B looks random locally.
	h := NewPaperHybrid()
	tr := NewTracker(h)
	rng := rand.New(rand.NewSource(7))
	var mis uint64
	const n = 30000
	for i := 0; i < n; i++ {
		dir := rng.Intn(2) == 0
		tr.Observe(1, dir)
		if tr.Observe(2, dir) && i > n/2 {
			mis++
		}
	}
	rate := float64(mis) / float64(n/2)
	if rate > 0.10 {
		t.Errorf("correlated branch rate after warmup = %f, want < 0.10", rate)
	}
}

func TestTrackerAccounting(t *testing.T) {
	tr := NewTracker(NewBimodal())
	tr.Observe(1, true)
	tr.Observe(1, true)
	tr.Observe(2, false)
	tot := tr.Total()
	if tot.Executed != 3 || tot.Taken != 2 {
		t.Errorf("totals = %+v", tot)
	}
	per := tr.PerBranch()
	if len(per) != 2 || per[1].Executed != 2 || per[2].Executed != 1 {
		t.Errorf("per-branch = %+v", per)
	}
	if s := tr.Stats(99); s.Executed != 0 {
		t.Error("unknown branch should have zero stats")
	}
}

func TestHardToPredict(t *testing.T) {
	tr := NewTracker(NewPaperHybrid())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		tr.Observe(1, true)             // easy
		tr.Observe(2, rng.Intn(2) == 0) // hard
	}
	tr.Observe(3, false) // cold: executed once only

	hard := func(pc int32) bool { return tr.Stats(pc).HardToPredict(0.05, 100) }
	if hard(1) {
		t.Error("easy branch flagged hard")
	}
	if !hard(2) {
		t.Error("random branch not flagged hard")
	}
	if hard(3) {
		t.Error("cold branch flagged despite minExec")
	}
}

func TestMispredictRateZeroExec(t *testing.T) {
	var s BranchStats
	if s.MispredictRate() != 0 {
		t.Error("zero executions should give rate 0")
	}
}

func TestHybridConfigClamping(t *testing.T) {
	h := NewHybrid(HybridConfig{LocalHistoryBits: 0, GlobalHistoryBits: 99})
	// Should fall back to defaults without panicking, and work.
	for i := 0; i < 100; i++ {
		h.Update(1, true)
	}
	if !h.Predict(1) {
		t.Error("clamped hybrid broken")
	}
}

func BenchmarkHybridObserve(b *testing.B) {
	tr := NewTracker(NewPaperHybrid())
	rng := rand.New(rand.NewSource(1))
	pcs := make([]int32, 64)
	for i := range pcs {
		pcs[i] = int32(rng.Intn(4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(pcs[i&63], i&3 != 0)
	}
}
