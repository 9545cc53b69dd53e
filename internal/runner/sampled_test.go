package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/simpoint"
)

// testSimPoint shrinks the intervals so test-size runs (~100k-400k
// instructions) span enough of them to cluster.
var testSimPoint = simpoint.Config{IntervalSize: 16384, WarmupEvents: 4096}

func render(p *Profile, sz bio.Size) string {
	return loadchar.RenderProfile(p.Name, sz.String(), p.Analysis, 10)
}

// TestSampledWithinTolerance: the sampled profile approximates the
// exact one. At test size the phases are short and irregular — much
// harsher than the classB/classC regime the tolerances are tuned for —
// so this only asserts the headline metrics land within a loose bound,
// plus the exact-by-construction invariants.
func TestSampledWithinTolerance(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"hmmsearch", "predator"} {
		t.Run(name, func(t *testing.T) {
			p, err := bio.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSession(2)
			s.SetSimPoint(testSimPoint)
			exact, err := s.Characterize(ctx, p, bio.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := s.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
			if err != nil {
				t.Fatal(err)
			}
			if sampled.Instructions != exact.Instructions {
				t.Errorf("sampled Instructions %d != exact %d", sampled.Instructions, exact.Instructions)
			}
			if sampled.Source != "sampled" {
				t.Errorf("Source = %q, want sampled", sampled.Source)
			}
			diffs, max := simpoint.ProfileError(exact.Analysis, sampled.Analysis)
			if max > 15 {
				t.Errorf("sampled error %.2f pp exceeds the loose test-size bound: %v", max, diffs)
			}
			if st := s.Stats(); st.SampledChars != 1 || st.SampledDegrades != 0 {
				t.Errorf("stats %+v", st)
			}
		})
	}
}

// TestSampledDegradesToExact: a trace spanning fewer than
// simpoint.DefaultMinIntervals intervals degrades — the served profile
// must be byte-identical to the exact one, and the degrade must be
// counted.
func TestSampledDegradesToExact(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	// Default 256Ki-event intervals: the ~109k-event test run yields one.
	sampled, err := s.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(sampled, bio.SizeTest), render(exact, bio.SizeTest); got != want {
		t.Errorf("degraded profile differs from exact:\n--- degraded ---\n%s\n--- exact ---\n%s", got, want)
	}
	if st := s.Stats(); st.SampledDegrades != 1 || st.SampledChars != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestSampledUnalignedIntervalsDegrade: intervals shorter than a trace
// chunk put representative edges mid-chunk, which replay never cuts,
// so the request degrades before any replay and serves the exact
// profile byte for byte.
func TestSampledUnalignedIntervalsDegrade(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	s.SetSimPoint(simpoint.Config{IntervalSize: 8192, WarmupEvents: 4096})
	sampled, err := s.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(sampled, bio.SizeTest), render(exact, bio.SizeTest); got != want {
		t.Errorf("degraded profile differs from exact:\n--- degraded ---\n%s\n--- exact ---\n%s", got, want)
	}
	if st := s.Stats(); st.SampledDegrades != 1 || st.SampledChars != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestSampledOversizedIntervalDegrades: with an interval larger than
// every test-size run, no program has enough intervals to cluster, and
// each sampled request degrades to a working exact profile.
func TestSampledOversizedIntervalDegrades(t *testing.T) {
	ctx := context.Background()
	for _, p := range bio.All() {
		s := NewSession(1)
		s.SetSimPoint(simpoint.Config{IntervalSize: 1 << 30}) // force degrade
		prof, err := s.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if prof.Analysis == nil || prof.Instructions == 0 {
			t.Fatalf("%s: degraded profile is empty", p.Name)
		}
	}
}

// TestSampledStoreRoundTrip: a second session over the same store
// serves the sampled profile from its snapshot (no simulation), and
// the sampled artifact never shadows the exact one.
func TestSampledStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}

	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(2, st1)
	s1.SetSimPoint(testSimPoint)
	sampled1, err := s1.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Runs != 1 || st.SampledChars != 1 {
		t.Fatalf("cold sampled stats %+v", st)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(2, st2)
	s2.SetSimPoint(testSimPoint)
	sampled2, err := s2.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Runs != 0 || st.SampledHits != 1 || st.SampledChars != 0 {
		t.Fatalf("warm sampled stats %+v", st)
	}
	if got, want := render(sampled2, bio.SizeTest), render(sampled1, bio.SizeTest); got != want {
		t.Errorf("persisted sampled profile differs from fresh one")
	}
	// A different sampling config must miss the snapshot (its key
	// carries the config fingerprint) rather than serve a stale plan.
	// Its intervals stay whole trace chunks, so it samples, not degrades.
	s3 := NewSessionWithStore(2, st2)
	s3.SetSimPoint(simpoint.Config{IntervalSize: 32768, WarmupEvents: 4096})
	if _, err := s3.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.SampledHits != 0 || st.SampledChars != 1 {
		t.Fatalf("config-miss stats %+v", st)
	}
	// Exact requests must not see any sampled artifact: the exact
	// profile was never computed, so the store serves it by replaying
	// the recorded trace, not from a snapshot.
	exact, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Source != "replay" {
		t.Errorf("exact Source = %q, want replay (trace tier)", exact.Source)
	}
	if render(exact, bio.SizeTest) == render(sampled2, bio.SizeTest) {
		t.Error("exact and sampled profiles are identical — sampled artifact leaked into the exact tier")
	}
}

// TestSampledSurvivesRefusingStore: a store that refuses the trace
// costs a sampled request its persistence, not its answer. Whether the
// store refuses at the start of the recording (its directory is gone)
// or at commit (its object tree is a file), the trace is recorded in
// memory, as in a storeless session, and the profile renders byte for
// byte as that session's does. A refusal at commit costs a second run.
// Every refusal shows in the store's WriteErrors; a healthy store
// counts none.
func TestSampledSurvivesRefusingStore(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession(2)
	ref.SetSimPoint(testSimPoint)
	want, err := ref.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		refuse func(dir string) error
		runs   uint64
		// refused is whether the store must count write errors.
		refused bool
	}{
		{"healthy", func(string) error { return nil }, 1, false},
		{"create", os.RemoveAll, 1, true},
		{"commit", func(dir string) error {
			objects := filepath.Join(dir, "objects")
			if err := os.RemoveAll(objects); err != nil {
				return err
			}
			return os.WriteFile(objects, nil, 0o644)
		}, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			defer st.Close()
			if err := c.refuse(dir); err != nil {
				t.Fatal(err)
			}
			s := NewSessionWithStore(2, st)
			s.SetSimPoint(testSimPoint)
			got, err := s.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled)
			if err != nil {
				t.Fatalf("sampled characterize over a refusing store: %v", err)
			}
			if g, w := render(got, bio.SizeTest), render(want, bio.SizeTest); g != w {
				t.Errorf("profile differs from the storeless session's:\n--- got ---\n%s\n--- want ---\n%s", g, w)
			}
			if st := s.Stats(); st.Runs != c.runs || st.SampledChars != 1 {
				t.Errorf("stats %+v, want %d runs and one sampled characterization", st, c.runs)
			}
			if n := st.Stats().WriteErrors; (n > 0) != c.refused {
				t.Errorf("store counted %d write errors; refusing store: %v", n, c.refused)
			}
		})
	}
}

// TestExactByteIdenticalAcrossTiers is the golden guarantee: with
// sampled requests interleaved, accuracy=exact renders byte-identical
// profiles from every serve tier — cold, snapshot, trace replay, and
// peer fetch.
func TestExactByteIdenticalAcrossTiers(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())

	// Cold, storeless.
	s0 := NewSession(1)
	s0.SetSimPoint(testSimPoint)
	cold, err := s0.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := render(cold, bio.SizeTest)
	if cold.Source != "cold" {
		t.Errorf("cold Source = %q", cold.Source)
	}

	// Store-backed cold with a sampled request interleaved.
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	s1 := NewSessionWithStore(1, st)
	s1.SetSimPoint(testSimPoint)
	if _, err := s1.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled); err != nil {
		t.Fatal(err)
	}
	prof, err := s1.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(prof, bio.SizeTest); got != want {
		t.Errorf("store-backed exact differs from cold (source %s)", prof.Source)
	}

	// Snapshot tier.
	s2 := NewSessionWithStore(1, st)
	prof2, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if prof2.Source != "snapshot" {
		t.Errorf("tier = %q, want snapshot", prof2.Source)
	}
	if got := render(prof2, bio.SizeTest); got != want {
		t.Error("snapshot tier differs from cold")
	}

	// Replay tier: drop the exact snapshot, keep the trace.
	st.Delete(profKey(fp, bio.SizeTest))
	s3 := NewSessionWithStore(1, st)
	prof3, err := s3.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if prof3.Source != "replay" {
		t.Errorf("tier = %q, want replay", prof3.Source)
	}
	if got := render(prof3, bio.SizeTest); got != want {
		t.Error("replay tier differs from cold")
	}

	// Peer tier: fresh store, artifact only on the fake remote.
	remote := newFakeRemote()
	if data, ok := st.GetBytes(profKey(fp, bio.SizeTest)); ok {
		remote.artifacts[profKey(fp, bio.SizeTest)] = data
	} else {
		t.Fatal("replay tier did not re-persist the snapshot")
	}
	st4 := openStore(t, t.TempDir())
	defer st4.Close()
	s4 := NewSessionWithStore(1, st4)
	s4.SetRemote(remote)
	prof4, err := s4.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if prof4.Source != "peer" {
		t.Errorf("tier = %q, want peer", prof4.Source)
	}
	if got := render(prof4, bio.SizeTest); got != want {
		t.Error("peer tier differs from cold")
	}
}

// TestSampledAnalyzeClampsToGOMAXPROCS: with one schedulable CPU, a
// four-worker request runs the collection scan and the representative
// replays on one worker, says so in Exec, and serves the same profile
// as a one-worker request.
func TestSampledAnalyzeClampsToGOMAXPROCS(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(1)
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	ir, cleanup, err := s.sampledTrace(ctx, p, bio.SizeTest, "", prog)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	want, _, err := SampledAnalyze(ctx, prog, ir, testSimPoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got, _, err := SampledAnalyze(ctx, prog, ir, testSimPoint, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e := (loadchar.Execution{RequestedWorkers: 4, Workers: 1, SerialReason: loadchar.SerialReasonGOMAXPROCS}); got.Exec != e {
		t.Errorf("Exec %+v, want %+v", got.Exec, e)
	}
	if g, w := loadchar.RenderProfile(p.Name, "test", got, 10), loadchar.RenderProfile(p.Name, "test", want, 10); g != w {
		t.Errorf("clamped sampled profile differs from the one-worker profile:\n%s\nvs\n%s", g, w)
	}
}

// sampledTestRenderSHA pins the SHA-256 of each program's test-size
// sampled render (testSimPoint, RenderProfile at 10 rows). Sampled
// profiles are deterministic, so any change to collection, clustering,
// representative replay or extrapolation that moves one shows here.
var sampledTestRenderSHA = map[string]string{
	"blast":        "bc6f354ceccda90a0f184233b2813d67c10e8c1b345063099327238357d75fb2",
	"clustalw":     "b7b2b3e2d629dcf667804ce25b90a1f98b3c12292c1a11f71348c45543d22ceb",
	"dnapenny":     "e3a6546e31fcf30a7f843dbb35c46b597976be5811d3d9eef1a6016606c91f46",
	"fasta":        "7208d7314259e722b2a2ad247836c0b20c3699fdf4e708bf1e414ec540bde38a",
	"hmmcalibrate": "838bcfb91a1cc64a0dc127c32ffeaf41139ac9d0c577c62c54f5eab828c7ba1b",
	"hmmpfam":      "93703579cd783e39232bbe45fbed754d5bb01e12db30d9e3d8e2b0812be79f38",
	"hmmsearch":    "1c30698e5d2778295348768154a01d280ee339adbb67df6cb3ddda1bc9ec25dc",
	"predator":     "2ac74e4fa902e830f7b5a972afd18cffa14e9544ea2250faf7c8190bd5471f24",
	"promlk":       "e308188727f52d15e26a6281da8bb0d2d8175496467ff00bf3a818410c232409",
}

// TestSampledGoldenRenders: SampledAnalyze over every program's
// test-size trace renders exactly the pinned bytes.
func TestSampledGoldenRenders(t *testing.T) {
	ctx := context.Background()
	s := NewSession(2)
	for _, p := range bio.All() {
		prog, err := s.Compile(p, false, compiler.Default())
		if err != nil {
			t.Fatal(err)
		}
		ir, cleanup, err := s.sampledTrace(ctx, p, bio.SizeTest, "", prog)
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := SampledAnalyze(ctx, prog, ir, testSimPoint, 2)
		cleanup()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sum := sha256.Sum256([]byte(loadchar.RenderProfile(p.Name, bio.SizeTest.String(), a, 10)))
		if got, want := hex.EncodeToString(sum[:]), sampledTestRenderSHA[p.Name]; got != want {
			t.Errorf("%s: sampled render SHA-256 %s, want %s", p.Name, got, want)
		}
	}
}
