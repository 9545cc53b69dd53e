package runner

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/trace"
)

// freshSampled is SampledAnalyze's extrapolation with a new analysis
// per representative interval, replayed one after another: the
// reference the reusing workers must match.
func freshSampled(t *testing.T, prog *isa.Program, ir *trace.IndexedReader, plan *simpoint.Plan) *loadchar.Snapshot {
	t.Helper()
	var merged *loadchar.Snapshot
	for _, c := range plan.Clusters {
		snap, err := replayInterval(context.Background(), prog, loadchar.New(prog), ir, c.Start, c.End, plan.Config.WarmupEvents)
		if err != nil {
			t.Fatal(err)
		}
		snap.Scale(c.Weight)
		if merged == nil {
			merged = snap
		} else if err := merged.Merge(snap); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

// sampledTestTrace compiles p and records its test-size trace in
// memory.
func sampledTestTrace(t testing.TB, s *Session, p *bio.Program) (*isa.Program, *trace.IndexedReader) {
	t.Helper()
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	ir, _, err := s.sampledTrace(context.Background(), p, bio.SizeTest, "", prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, ir
}

// TestSampledReuseMatchesFresh: SampledAnalyze, whose workers each
// Reset and reuse one analysis across their intervals, gives exactly
// the snapshot of replaying every interval on a new analysis, at one,
// two and four workers, on every program at test size.
func TestSampledReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	s := NewSession(1)
	reused := 0
	for _, p := range bio.All() {
		prog, ir := sampledTestTrace(t, s, p)
		var want *loadchar.Snapshot
		for _, jobs := range []int{1, 2, 4} {
			a, plan, err := SampledAnalyze(ctx, prog, ir, testSimPoint, jobs)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", p.Name, jobs, err)
			}
			if want == nil {
				want = freshSampled(t, prog, ir, plan)
				reused += len(plan.Clusters) - 1
			}
			if !reflect.DeepEqual(a.Snapshot(), want) {
				t.Errorf("%s jobs=%d: sampled snapshot differs from fresh per-interval replays", p.Name, jobs)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no program has a second representative interval, so no analysis was reused")
	}
}

// TestIntervalReplayReusesAnalysis pins the point of the reuse: once a
// worker's analysis and the decoder pool are warm, replaying another
// interval on the Reset analysis allocates under 96 KiB — one
// snapshot, the column source and the report state's maps — where a
// new analysis alone is a 528 KiB cache hierarchy plus predictor and
// run-engine tables. The least of three replays is pinned, so a
// garbage collection that empties the decoder pool mid-test does not
// count; under the race detector, which empties pools at random, the
// test is skipped.
func TestIntervalReplayReusesAnalysis(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a random share of sync.Pool Puts, so pooled decoders and slabs are reallocated at random")
	}
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	prog, ir := sampledTestTrace(t, NewSession(1), p)
	_, plan, err := SampledAnalyze(ctx, prog, ir, testSimPoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clusters) < 2 {
		t.Fatalf("%d representative intervals, want at least 2", len(plan.Clusters))
	}
	a := loadchar.New(prog)
	replay := func(i int) {
		c := plan.Clusters[i%len(plan.Clusters)]
		if _, err := replayInterval(ctx, prog, a, ir, c.Start, c.End, plan.Config.WarmupEvents); err != nil {
			t.Fatal(err)
		}
	}
	replay(0)
	least := ^uint64(0)
	for i := 1; i <= 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.Reset()
		replay(i)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a replay on a reused analysis allocates %d bytes", least)
	if least >= 96<<10 {
		t.Errorf("a replay on a reused analysis allocates %d bytes, want under %d", least, 96<<10)
	}
}

// BenchmarkSampledAnalyze measures the sampled tier over a recorded
// test-size trace: token scan, clustering, and the representative
// replays on two workers, each reusing one analysis. Allocations are
// reported, since reuse is what keeps them down.
func BenchmarkSampledAnalyze(b *testing.B) {
	p, tf, size, _ := benchRecord(b, "hmmsearch", bio.SizeTest)
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir, err := trace.NewIndexedReader(tf, size)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := SampledAnalyze(context.Background(), prog, ir, testSimPoint, 2); err != nil {
			b.Fatal(err)
		}
	}
}
