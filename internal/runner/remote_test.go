package runner

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
)

// fakeRemote is a RemoteTier backed by a map, honoring the contract
// that Fetch only returns bytes the verify callback accepted.
type fakeRemote struct {
	mu         sync.Mutex
	artifacts  map[string][]byte
	replicated map[string][]byte
	fetches    int
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{artifacts: make(map[string][]byte), replicated: make(map[string][]byte)}
}

func (f *fakeRemote) Fetch(ctx context.Context, key string, verify func([]byte) error) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches++
	data, ok := f.artifacts[key]
	if !ok {
		return nil, false
	}
	if verify != nil && verify(data) != nil {
		return nil, false
	}
	return data, true
}

func (f *fakeRemote) Replicate(key string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replicated[key] = append([]byte(nil), data...)
}

// TestRemoteTierServesPeerSnapshot is the fleet acceptance test at
// unit scale: node A computes cold, node B (sharing nothing but the
// wire bytes) serves the same request from the peer tier with zero
// cold simulations, byte-identical profile, and the artifact admitted
// locally so a THIRD request is a plain snapshot hit.
func TestRemoteTierServesPeerSnapshot(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())
	key := profKey(fp, bio.SizeTest)

	// Node A: cold compute with a remote attached records the
	// write-through replication push.
	remoteA := newFakeRemote()
	stA := openStore(t, t.TempDir())
	defer stA.Close()
	sA := NewSessionWithStore(1, stA)
	sA.SetRemote(remoteA)
	profA, err := sA.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := sA.Stats(); st.ColdChars != 1 || st.PeerHits != 0 {
		t.Fatalf("node A stats %+v", st)
	}
	pushed, ok := remoteA.replicated[key]
	if !ok {
		t.Fatalf("cold compute did not replicate %q; replicated keys: %d", key, len(remoteA.replicated))
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), profA.Analysis, 10)

	// Node B: empty store, remote tier holding A's replicated bytes.
	remoteB := newFakeRemote()
	remoteB.artifacts[key] = pushed
	dirB := t.TempDir()
	stB := openStore(t, dirB)
	sB := NewSessionWithStore(1, stB)
	sB.SetRemote(remoteB)
	profB, err := sB.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := sB.Stats(); st.PeerHits != 1 || st.ColdChars != 0 || st.Runs != 0 || st.ReplayRuns != 0 {
		t.Fatalf("node B stats %+v (want exactly one peer hit, no simulation)", st)
	}
	got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), profB.Analysis, 10)
	if got != want {
		t.Fatalf("peer-served profile differs from locally computed one:\n--- local\n%s\n--- peer\n%s", want, got)
	}

	// Pull-on-read: the fetched artifact was admitted locally, so a
	// fresh session over B's store never consults the remote again.
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}
	stB2 := openStore(t, dirB)
	defer stB2.Close()
	sB2 := NewSessionWithStore(1, stB2)
	profB2, err := sB2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := sB2.Stats(); st.ProfileHits != 1 || st.PeerHits != 0 {
		t.Fatalf("node B restart stats %+v (want local snapshot hit)", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), profB2.Analysis, 10); got != want {
		t.Fatal("admitted artifact renders differently after restart")
	}
}

// TestRemoteTierRejectsBadArtifacts: corrupt or mismatched peer bytes
// must fail verification and push the request to cold simulation,
// never into the local store. A well-formed snapshot computed under
// another key — another program, or this program sampled — is
// mismatched: the artifact header binds it to its own key. So is this
// very snapshot under another layout version.
func TestRemoteTierRejectsBadArtifacts(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	other, err := bio.ByName("fasta")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())
	key := profKey(fp, bio.SizeTest)

	// Valid snapshots for the WRONG program (fasta) and for the sampled
	// tier, plus garbage.
	stSeed := openStore(t, t.TempDir())
	sSeed := NewSessionWithStore(1, stSeed)
	sSeed.SetSimPoint(testSimPoint)
	if _, err := sSeed.Characterize(ctx, other, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if _, err := sSeed.CharacterizeAccuracy(ctx, p, bio.SizeTest, AccuracySampled); err != nil {
		t.Fatal(err)
	}
	if _, err := sSeed.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	otherKey := profKey(Fingerprint(other, false, compiler.Default()), bio.SizeTest)
	wrongProgram, ok := stSeed.GetBytes(otherKey)
	if !ok {
		t.Fatal("seed store missing fasta snapshot")
	}
	sampled, ok := stSeed.GetBytes(sampledProfKey(fp, bio.SizeTest, sSeed.SimPoint()))
	if !ok {
		t.Fatal("seed store missing the sampled hmmsearch snapshot")
	}
	otherVersion, ok := stSeed.GetBytes(key)
	if !ok {
		t.Fatal("seed store missing the exact hmmsearch snapshot")
	}
	binary.LittleEndian.PutUint32(otherVersion[4:], profVersion+1)
	stSeed.Close()

	for name, bad := range map[string][]byte{
		"garbage bytes":      []byte("not a profile artifact at all"),
		"wrong program":      wrongProgram,
		"sampled snapshot":   sampled,
		"other version":      otherVersion,
		"truncated artifact": wrongProgram[:len(wrongProgram)/3],
		"empty artifact":     {},
	} {
		t.Run(name, func(t *testing.T) {
			remote := newFakeRemote()
			remote.artifacts[key] = bad
			st := openStore(t, t.TempDir())
			defer st.Close()
			s := NewSessionWithStore(1, st)
			s.SetRemote(remote)
			prof, err := s.Characterize(ctx, p, bio.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			if prof == nil || prof.Instructions == 0 {
				t.Fatal("characterization did not complete")
			}
			stats := s.Stats()
			if stats.PeerHits != 0 {
				t.Fatalf("bad artifact counted as peer hit: %+v", stats)
			}
			if stats.ColdChars != 1 {
				t.Fatalf("expected cold fallback, stats %+v", stats)
			}
			if remote.fetches == 0 {
				t.Fatal("remote tier was never consulted")
			}
		})
	}
}
