package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
)

// TestCharacterizeRunsOnce is the tentpole's acceptance test: one
// session performs exactly one functional characterization run per
// (program, size), no matter how many analyses ask for it, and the
// cache-hit counters prove the sharing happened.
func TestCharacterizeRunsOnce(t *testing.T) {
	s := NewSession(4)
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Characterize(context.Background(), p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	// Ten concurrent re-requests: all must get the same shared
	// profile without triggering another simulation.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof, err := s.Characterize(context.Background(), p, bio.SizeTest)
			if err != nil {
				t.Error(err)
				return
			}
			if prof != first {
				t.Error("got a different profile object: run not shared")
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want exactly 1", st.Runs)
	}
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want exactly 1", st.Compiles)
	}
	if st.CharacterizeHits != 10 {
		t.Errorf("CharacterizeHits = %d, want 10", st.CharacterizeHits)
	}
}

// TestCharacterizeAllRunsOnce: the nine-program fan-out performs nine
// runs, and repeating it performs zero more.
func TestCharacterizeAllRunsOnce(t *testing.T) {
	s := NewSession(0)
	if _, err := s.CharacterizeAll(context.Background(), bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Runs != 9 || st.Compiles != 9 {
		t.Errorf("after first pass: Runs=%d Compiles=%d, want 9/9", st.Runs, st.Compiles)
	}
	if _, err := s.CharacterizeAll(context.Background(), bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Runs != 9 || st.Compiles != 9 {
		t.Errorf("after second pass: Runs=%d Compiles=%d, want still 9/9", st.Runs, st.Compiles)
	}
	if st.CharacterizeHits != 9 {
		t.Errorf("CharacterizeHits = %d, want 9", st.CharacterizeHits)
	}
}

// TestCompileCacheSharesAcrossTimingRuns: a repeated timing job is a
// memo hit, so it costs neither a compile nor a run.
func TestCompileCacheSharesAcrossTimingRuns(t *testing.T) {
	s := NewSession(2)
	p, err := bio.ByName("clustalw")
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.ByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Evaluate(context.Background(), p, plat, bio.SizeTest, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Evaluate(context.Background(), p, plat, bio.SizeTest, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("timing runs diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	st := s.Stats()
	if st.Compiles != 1 || st.CompileHits != 0 {
		t.Errorf("Compiles=%d CompileHits=%d, want 1/0", st.Compiles, st.CompileHits)
	}
	if st.Runs != 1 || st.EvaluateMemoHits != 1 {
		t.Errorf("Runs=%d EvaluateMemoHits=%d, want 1/1 (the repeat is a memo hit)", st.Runs, st.EvaluateMemoHits)
	}
}

// TestEvaluateAllMatchesSingleRuns times the test-size Table 8 grid on
// both tiers in one call. Grouping must be invisible: the grouped stats
// equal one Evaluate per job, are identical at jobs 1 and 4, and cost
// exactly one functional run per distinct (program, variant, register
// budget, tier) stream — 36 for each tier's 48 jobs, since Alpha and
// PowerPC compile alike, and 72 in all.
func TestEvaluateAllMatchesSingleRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing grid")
	}
	ctx := context.Background()
	type stream struct {
		prog        string
		transformed bool
		opts        compiler.Options
		fid         pipeline.Fidelity
	}
	streams := make(map[stream]bool)
	var jobs []TimingJob
	var plats []platform.Platform
	for _, fid := range []pipeline.Fidelity{pipeline.FidelityFull, pipeline.FidelityFast} {
		for _, p := range bio.Transformed() {
			for _, pl := range platform.All() {
				pl = pl.WithFidelity(fid)
				for _, tr := range []bool{false, true} {
					jobs = append(jobs, TimingJob{Program: p, Config: pl.Pipeline, Opts: pl.EvalOptions(), Transformed: tr})
					plats = append(plats, pl)
					streams[stream{p.Name, tr, pl.EvalOptions(), fid}] = true
				}
			}
		}
	}
	if len(jobs) != 96 || len(streams) != 72 {
		t.Fatalf("grid has %d jobs over %d streams, want 96 over 72", len(jobs), len(streams))
	}
	for _, tier := range [][]TimingJob{jobs[:48], jobs[48:]} {
		if fr := FunctionalRuns(tier); fr != 36 {
			t.Errorf("%s tier: FunctionalRuns = %d, want 36", tier[0].Config.Fidelity, fr)
		}
	}

	single := NewSession(0)
	want := make([]pipeline.Stats, len(jobs))
	err := single.ForEach(ctx, len(jobs), func(i int) error {
		st, err := single.Evaluate(ctx, jobs[i].Program, plats[i], bio.SizeTest, jobs[i].Transformed)
		want[i] = st
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		s := NewSession(n)
		got, err := s.EvaluateAll(ctx, jobs, bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			if got[i] != want[i] {
				t.Errorf("jobs=%d: job %d (%s on %s, %s tier, transformed=%v): grouped %+v, single %+v",
					n, i, j.Program.Name, plats[i].Name, j.Config.Fidelity, j.Transformed, got[i], want[i])
			}
		}
		if runs := s.Stats().Runs; runs != uint64(len(streams)) {
			t.Errorf("jobs=%d: %d functional runs, want %d (one per stream)", n, runs, len(streams))
		}
	}
}

// TestConcurrentCompileSingleflight: many goroutines requesting the
// same compile key trigger exactly one compilation.
func TestConcurrentCompileSingleflight(t *testing.T) {
	s := NewSession(8)
	p, err := bio.ByName("blast")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	progs := make([]interface{}, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog, err := s.Compile(p, false, compiler.Default())
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = prog
		}(i)
	}
	wg.Wait()
	for i := 1; i < 16; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a distinct compilation artifact", i)
		}
	}
	if st := s.Stats(); st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", st.Compiles)
	}
}

// TestForEachDeterministicOrder: results land in caller-indexed slots
// regardless of pool width.
func TestForEachDeterministicOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		s := NewSession(jobs)
		out := make([]int, 100)
		if err := s.ForEach(context.Background(), 100, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d", jobs, i, v)
			}
		}
	}
}

// TestForEachLowestIndexError: a parallel session reports the same
// error a sequential loop would surface first.
func TestForEachLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, jobs := range []int{1, 4} {
		s := NewSession(jobs)
		err := s.ForEach(context.Background(), 50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 40:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Errorf("jobs=%d: got %v, want the lowest-index error", jobs, err)
		}
	}
}

// TestCharacterizeCancellation: a canceled context stops a
// characterization run promptly, the failure is NOT memoized (the
// cache entry is evicted), and a later request with a live context
// runs and succeeds.
func TestCharacterizeCancellation(t *testing.T) {
	s := NewSession(1)
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.Characterize(ctx, p, bio.SizeB); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("canceled run took %v, want prompt return", elapsed)
	}
	// The cancellation must not poison the cache: the retry runs the
	// simulation for real and succeeds.
	prof, err := s.Characterize(context.Background(), p, bio.SizeTest)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if prof == nil || prof.Instructions == 0 {
		t.Fatal("retry returned an empty profile")
	}
}

// TestEvaluateCancellation: timing runs honor cancellation too.
func TestEvaluateCancellation(t *testing.T) {
	s := NewSession(1)
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platform.ByName("alpha21264")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Evaluate(ctx, p, plat, bio.SizeB, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// slowRequest is one classB request per memo that a test starts as a
// leader and joins as a follower: it runs for hundreds of
// milliseconds, and claimed reports that a leader holds its key.
type slowRequest struct {
	name    string
	run     func(ctx context.Context, s *Session) error
	claimed func(s *Session) bool
}

func slowRequests(t *testing.T) []slowRequest {
	t.Helper()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	job := alphaJob(t, "blast", pipeline.FidelityFast)
	return []slowRequest{
		{
			name: "characterize",
			run: func(ctx context.Context, s *Session) error {
				_, err := s.Characterize(ctx, p, bio.SizeB)
				return err
			},
			claimed: func(s *Session) bool { return s.chars.claimed(charKey{p.Name, bio.SizeB, AccuracyExact}) },
		},
		{
			name: "evaluate",
			run: func(ctx context.Context, s *Session) error {
				_, err := s.EvaluateAll(ctx, []TimingJob{job}, bio.SizeB)
				return err
			},
			claimed: func(s *Session) bool { return s.evals.claimed(timingKey(job, bio.SizeB).name) },
		},
	}
}

func (t *memo[K, V]) claimed(k K) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[k] != nil
}

// lead starts req on s under ctx and returns once its key is claimed;
// the run's error arrives on the channel.
func lead(t *testing.T, ctx context.Context, s *Session, req slowRequest) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- req.run(ctx, s) }()
	for deadline := time.Now().Add(10 * time.Second); !req.claimed(s); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never claimed its key")
		}
	}
	return errc
}

// TestFollowerKeepsOwnDeadline: a follower that joins a run in flight
// gives up at its own deadline, while the leader runs on and succeeds.
func TestFollowerKeepsOwnDeadline(t *testing.T) {
	for _, req := range slowRequests(t) {
		t.Run(req.name, func(t *testing.T) {
			s := NewSession(1)
			leader := lead(t, context.Background(), s, req)
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := req.run(ctx, s)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("follower got %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 400*time.Millisecond {
				t.Errorf("follower returned after %v, want about 100ms", elapsed)
			}
			select {
			case err = <-leader:
				t.Errorf("leader finished before its follower's deadline")
			default:
				err = <-leader
			}
			if err != nil {
				t.Fatalf("leader: %v", err)
			}
			if st := s.Stats(); st.Runs != 1 {
				t.Errorf("Runs = %d, want 1: the follower ran nothing", st.Runs)
			}
		})
	}
}

// TestFollowerOutlivesCanceledLeader: a follower with a live context
// does not inherit its leader's cancellation; it runs the key itself
// and succeeds, and the result is then memoized.
func TestFollowerOutlivesCanceledLeader(t *testing.T) {
	for _, req := range slowRequests(t) {
		t.Run(req.name, func(t *testing.T) {
			s := NewSession(1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leader := lead(t, ctx, s, req)
			follower := make(chan error, 1)
			go func() { follower <- req.run(context.Background(), s) }()
			// A follower's join is not observable. The sleep lets it
			// join before the cancel; one that came later would claim
			// the key itself, which must succeed too.
			time.Sleep(50 * time.Millisecond)
			cancel()
			if err := <-leader; !errors.Is(err, context.Canceled) {
				t.Errorf("leader got %v, want context.Canceled", err)
			}
			if err := <-follower; err != nil {
				t.Fatalf("follower got %v, want its own successful run", err)
			}
			before := s.Stats()
			if err := req.run(context.Background(), s); err != nil {
				t.Fatal(err)
			}
			if after := s.Stats(); after.Runs != before.Runs ||
				after.CharacterizeHits+after.EvaluateMemoHits != before.CharacterizeHits+before.EvaluateMemoHits+1 {
				t.Errorf("the repeat was not a memo hit: stats %+v, then %+v", before, after)
			}
		})
	}
}

// TestForEachCancellation: a canceled context stops dispatching new
// indices and the sweep reports the cancellation.
func TestForEachCancellation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		s := NewSession(jobs)
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := s.ForEach(ctx, 1000, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: got %v, want context.Canceled", jobs, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Errorf("jobs=%d: all %d indices ran despite cancellation", jobs, n)
		}
		cancel()
	}
}
