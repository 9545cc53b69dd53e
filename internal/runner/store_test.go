package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestart is the persistence acceptance test: a second
// session opening the same store serves a characterization without
// simulating — from the persisted snapshot, or by trace
// replay when the snapshot is gone — and the profile is byte-identical
// to the cold run's in every case.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())

	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(1, st1)
	prof1, err := s1.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof1.Analysis, 10)
	if st := s1.Stats(); st.Runs != 1 || st.ReplayRuns != 0 || st.ProfileHits != 0 {
		t.Fatalf("cold session stats %+v", st)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the snapshot artifact serves directly, after one
	// compile from source (the store holds no compiled programs).
	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(1, st2)
	prof2, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Runs != 0 || st.Compiles != 1 || st.ProfileHits != 1 || st.ReplayRuns != 0 {
		t.Fatalf("warm session simulated or compiled more than once: %+v", st)
	}
	if prof2.Instructions != prof1.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", prof2.Instructions, prof1.Instructions)
	}
	got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof2.Analysis, 10)
	if got != want {
		t.Errorf("snapshot profile differs from cold profile:\n--- cold ---\n%s\n--- snapshot ---\n%s", want, got)
	}
	if ss := st2.Stats(); ss.Hits < 1 {
		t.Fatalf("expected store hits, got %+v", ss)
	}

	// Delete the snapshot: the trace remains, so a restart falls back
	// to component-parallel replay (jobs > 1) and re-persists the
	// snapshot on the way out.
	st3 := openStore(t, dir)
	defer st3.Close()
	st3.Delete(profKey(fp, bio.SizeTest))
	s3 := NewSessionWithStore(2, st3)
	prof3, err := s3.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Runs != 0 || st.ReplayRuns != 1 || st.ProfileHits != 0 {
		t.Fatalf("replay session stats %+v", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof3.Analysis, 10); got != want {
		t.Errorf("parallel replay profile differs from cold profile")
	}
	if _, ok := st3.GetBytes(profKey(fp, bio.SizeTest)); !ok {
		t.Fatal("replay did not re-persist the snapshot artifact")
	}

	// Sequential replay (jobs == 1) must also match.
	st4 := openStore(t, dir)
	defer st4.Close()
	st4.Delete(profKey(fp, bio.SizeTest))
	s4 := NewSessionWithStore(1, st4)
	prof4, err := s4.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s4.Stats(); st.Runs != 0 || st.ReplayRuns != 1 {
		t.Fatalf("sequential replay session stats %+v", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof4.Analysis, 10); got != want {
		t.Errorf("sequential replay profile differs from cold profile")
	}
}

// TestStoreCorruptionFallsBackToSimulation flips bits in every stored
// object: the next characterization must detect the damage, evict, and
// silently fall back to a cold (and re-recorded) simulation.
func TestStoreCorruptionFallsBackToSimulation(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}

	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(1, st1)
	prof1, err := s1.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof1.Analysis, 10)
	st1.Close()

	// Vandalize every object file.
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i := range data {
			data[i] ^= 0xa5
		}
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(1, st2)
	prof2, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatalf("characterize with corrupted store: %v", err)
	}
	if st := s2.Stats(); st.Runs != 1 || st.ReplayRuns != 0 || st.ProfileHits != 0 {
		t.Fatalf("corrupted store did not fall back to simulation: %+v", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof2.Analysis, 10); got != want {
		t.Errorf("fallback profile differs from original")
	}

	// The fallback run re-recorded and re-persisted; a third session
	// serves warm again without simulating.
	st3 := openStore(t, dir)
	defer st3.Close()
	s3 := NewSessionWithStore(1, st3)
	if _, err := s3.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Runs != 0 || st.ProfileHits+st.ReplayRuns != 1 {
		t.Fatalf("re-recorded artifacts not served warm: %+v", st)
	}
}

// TestStoreCancellationNotMisreadAsCorruption: a canceled context
// during replay must surface the context error and leave the stored
// trace intact for the next caller.
func TestStoreCancellationNotMisreadAsCorruption(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(1, st1)
	if _, err := s1.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	// Drop the snapshot so the warm path must go through trace replay.
	st2.Delete(profKey(Fingerprint(p, false, compiler.Default()), bio.SizeTest))
	s2 := NewSessionWithStore(1, st2)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s2.Characterize(canceled, p, bio.SizeTest); err == nil {
		t.Fatal("characterize with canceled context succeeded")
	}
	// The trace entry must still be there: a fresh context replays.
	if _, err := s2.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Runs != 0 || st.ReplayRuns != 1 {
		t.Fatalf("trace was evicted by cancellation: %+v", st)
	}
}

// TestFingerprintSensitivity: the fingerprint must change with any
// input that affects replay fidelity.
func TestFingerprintSensitivity(t *testing.T) {
	h, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}
	base := Fingerprint(h, false, compiler.Default())
	if base == Fingerprint(pr, false, compiler.Default()) {
		t.Error("different programs share a fingerprint")
	}
	o0 := compiler.Options{}
	if base == Fingerprint(h, false, o0) {
		t.Error("different compiler options share a fingerprint")
	}
	if base != Fingerprint(h, false, compiler.Default()) {
		t.Error("fingerprint is not deterministic")
	}
}

// TestSnapshotServesShareCompileMemo: the store holds no compiled
// programs, so exact and sampled snapshot serves of one program in a
// fresh session compile it once, from source, and share that compile.
func TestSnapshotServesShareCompileMemo(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(2, st1)
	s1.SetSimPoint(testSimPoint)
	for _, acc := range []Accuracy{AccuracyExact, AccuracySampled} {
		if _, err := s1.CharacterizeAccuracy(ctx, p, bio.SizeTest, acc); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(2, st2)
	s2.SetSimPoint(testSimPoint)
	for _, acc := range []Accuracy{AccuracyExact, AccuracySampled} {
		if _, err := s2.CharacterizeAccuracy(ctx, p, bio.SizeTest, acc); err != nil {
			t.Fatal(err)
		}
	}
	st := s2.Stats()
	if st.ProfileHits != 1 || st.SampledHits != 1 || st.Runs != 0 || st.ReplayRuns != 0 {
		t.Fatalf("not served from both snapshots: %+v", st)
	}
	if st.Compiles != 1 || st.CompileHits < 1 {
		t.Fatalf("Compiles=%d CompileHits=%d, want one compile shared by both serves", st.Compiles, st.CompileHits)
	}
}

// TestCompileDeterministic pins what replay and the snapshot tier
// rely on now that compiled programs are never stored: compiling the
// same source with the same options twice gives the same program.
// Every exported isa.Program field is compared, for every program and
// transformable variant, under the default options and under each
// platform's evaluation options.
func TestCompileDeterministic(t *testing.T) {
	opts := []compiler.Options{compiler.Default()}
	for _, pl := range platform.All() {
		opts = append(opts, pl.EvalOptions())
	}
	for _, p := range bio.All() {
		for _, transformed := range []bool{false, true} {
			if transformed && !p.Transformable {
				continue
			}
			for _, o := range opts {
				a, err := p.Compile(transformed, o)
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.Compile(transformed, o)
				if err != nil {
					t.Fatal(err)
				}
				if len(a.Insts) == 0 {
					t.Fatalf("%s transformed=%v %+v: empty program", p.Name, transformed, o)
				}
				va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
				for i := 0; i < va.NumField(); i++ {
					f := va.Type().Field(i)
					if f.IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
						t.Errorf("%s transformed=%v %+v: two compiles differ in %s", p.Name, transformed, o, f.Name)
					}
				}
			}
		}
	}
}

const craftInsts = 1001

// craftMapCount returns a profile artifact under key, for a program of
// craftInsts instructions, whose LoadCounts table claims count entries
// while carrying only one.
func craftMapCount(t testing.TB, key string, count uint32) []byte {
	t.Helper()
	counts := make([]uint64, craftInsts)
	counts[1000] = 0xabcdef
	data := encodeProfileArtifact(key, 0, &loadchar.Snapshot{LoadCounts: counts})
	entry := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 1000), 0xabcdef)
	at := bytes.Index(data, entry)
	if at < 4 || binary.LittleEndian.Uint32(data[at-4:]) != 1 {
		t.Fatal("LoadCounts entry not found in the encoded artifact")
	}
	binary.LittleEndian.PutUint32(data[at-4:], count)
	return data
}

// TestDecodeProfileArtifactBoundsMapCount: a table count the bytes do
// not back is rejected before any table is sized from it.
func TestDecodeProfileArtifactBoundsMapCount(t *testing.T) {
	key := profKey(Fingerprint(&bio.Program{Name: "x"}, false, compiler.Default()), bio.SizeTest)
	if _, _, err := decodeProfileArtifact(craftMapCount(t, key, 1), key, craftInsts); err != nil {
		t.Fatalf("honest count rejected: %v", err)
	}
	crafted := craftMapCount(t, key, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeProfileArtifact(crafted, key, craftInsts)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("artifact claiming 1Mi map entries in one accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte artifact allocated %d bytes", len(crafted), grew)
	}
}

// TestProfileArtifactPinned pins the stored profile layout: two
// snapshots of one analysis encode to equal bytes, and the test-size
// hmmsearch artifact has a fixed SHA-256. A change to the layout must
// bump profVersion and re-pin the hash here. The header carries the
// hash of the store key, which hashes artifactSchema, so a schema bump
// re-pins it too.
func TestProfileArtifactPinned(t *testing.T) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := NewSession(1).Characterize(context.Background(), p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	key := profKey(Fingerprint(p, false, compiler.Default()), bio.SizeTest)
	data := encodeProfileArtifact(key, prof.Instructions, prof.Analysis.Snapshot())
	if again := encodeProfileArtifact(key, prof.Instructions, prof.Analysis.Snapshot()); !bytes.Equal(again, data) {
		t.Fatal("two encodes of one snapshot differ")
	}
	const want = "e6eeeb27109c68a51208fabfbddeebc83ec87c7e1082b254f25276c8b5bdf5ed"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("hmmsearch test-size profile artifact (%d bytes): sha256 %s, want %s", len(data), got, want)
	}
}

// TestParentLayoutProfileReplays: a store holding a profile in the
// previous (gob) layout, under today's key, serves the next request by
// trace replay and rewrites the entry in the current layout. The
// testdata file is that entry for test-size hmmsearch as the gob
// layout wrote it.
func TestParentLayoutProfileReplays(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "hmmsearch_test_gob.prof"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st1 := openStore(t, dir)
	prof1, err := NewSessionWithStore(1, st1).Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof1.Analysis, 10)
	key := profKey(Fingerprint(p, false, compiler.Default()), bio.SizeTest)
	current, ok := st1.GetBytes(key)
	if !ok {
		t.Fatal("cold characterization stored no profile")
	}
	if err := st1.PutBytes(key, parent); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(1, st2)
	prof2, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.ReplayRuns != 1 || st.ColdChars != 0 || st.ProfileHits != 0 {
		t.Fatalf("stats %+v, want the parent-layout entry rejected and the request replayed", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof2.Analysis, 10); got != want {
		t.Error("replayed profile differs from the cold one")
	}
	if got, ok := st2.GetBytes(key); !ok || !bytes.Equal(got, current) {
		t.Error("the parent-layout entry was not rewritten in the current layout")
	}
}

// FuzzDecodeProfileArtifact feeds arbitrary bytes through the snapshot
// tier's whole read path — decodeProfileArtifact, FromSnapshot against
// a real test-size program, RenderProfile — which must never panic
// and must allocate in proportion to the input. Whatever it accepts
// re-encodes to the same bytes.
func FuzzDecodeProfileArtifact(f *testing.F) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		f.Fatal(err)
	}
	s := NewSession(1)
	prof, err := s.Characterize(context.Background(), p, bio.SizeTest)
	if err != nil {
		f.Fatal(err)
	}
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		f.Fatal(err)
	}
	key := profKey(Fingerprint(p, false, compiler.Default()), bio.SizeTest)
	valid := encodeProfileArtifact(key, prof.Instructions, prof.Analysis.Snapshot())
	// The same snapshot with branch-keyed entries at PCs outside the
	// program, which FromSnapshot keeps and the renderer must survive.
	foreign := prof.Analysis.Snapshot()
	foreign.Branches[1<<30] = foreign.BranchTotal
	foreign.FedBranch[-1] = map[int32]uint64{1 << 30: 1}
	foreign.AfterBranch[1<<30] = map[int32]uint64{-1: 1}
	f.Add(valid)
	f.Add(encodeProfileArtifact(key, prof.Instructions, foreign))
	f.Add(valid[:len(valid)/2])
	f.Add(craftMapCount(f, key, 1<<20))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, snap, err := decodeProfileArtifact(data, key, len(prog.Insts))
		if err == nil {
			if a, err := loadchar.FromSnapshot(prog, snap); err == nil {
				loadchar.RenderProfile(p.Name, bio.SizeTest.String(), a, 10)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(data)) {
			t.Fatalf("%d-byte artifact allocated %d bytes", len(data), grew)
		}
		if err == nil && !bytes.Equal(encodeProfileArtifact(key, n, snap), data) {
			t.Fatal("accepted artifact does not re-encode to its bytes")
		}
	})
}

// TestCheckArtifact: the admission check a pushed artifact passes takes
// exactly the header its key's kind requires.
func TestCheckArtifact(t *testing.T) {
	prof, eval := "prof|fp|test", "eval|fp|test|cfg"
	profOK := appendArtifactHeader(nil, profMagic, profVersion, sha256.Sum256([]byte(prof)))
	evalOK := encodeEvalArtifact(evalKey{name: eval, sum: sha256.Sum256([]byte(eval))}, pipeline.Stats{})
	for _, tc := range []struct {
		name, key string
		data      []byte
		ok        bool
	}{
		{"profile", prof, append(profOK, 1, 2, 3), true},
		{"timing", eval, evalOK, true},
		{"profile under another key", "prof|fp|classB", profOK, false},
		{"timing under a profile key", prof, evalOK, false},
		{"profile under a timing key", eval, profOK, false},
		{"timing one byte too long", eval, append(evalOK, 0), false},
		{"timing truncated", eval, evalOK[:len(evalOK)-1], false},
		{"other version", prof, append(append([]byte(profMagic), 2, 0, 0, 0), profOK[8:]...), false},
		{"trace key", "trace|fp|test", profOK, false},
		{"empty", prof, nil, false},
	} {
		if err := CheckArtifact(tc.key, tc.data); (err == nil) != tc.ok {
			t.Errorf("%s: CheckArtifact = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
