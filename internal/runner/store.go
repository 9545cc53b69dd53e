package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// artifactSchema versions the session's store keying: bump it when the
// meaning of persisted artifacts changes (profile semantics, trace
// pipeline), so stale entries read as misses. Compiled programs are
// never persisted: a session recompiles from source, which the
// fingerprint hashes.
//
// v2: profileArtifact carries the fingerprint it was computed under,
// verified on load — required once snapshots can arrive from fleet
// peers rather than only from this node's own simulations.
//
// v3: traces record in the run-native v4 format. The fingerprint also
// hashes trace.FormatVersion, but the schema bump guarantees that
// every pre-v4 artifact — including snapshots, whose encoding did not
// change — re-derives under the new trace pipeline rather than mixing
// tiers across the format boundary.
const artifactSchema = 3

// Fingerprint identifies a compiled artifact and everything replay
// fidelity depends on: the artifact schema, the trace format version,
// the program identity and variant, the compiler configuration, and
// the full MiniC source text. Two sessions with equal fingerprints
// produce interchangeable programs and traces.
func Fingerprint(p *bio.Program, transformed bool, opts compiler.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d trace=%d program=%s transformed=%v opts=%+v\n",
		artifactSchema, trace.FormatVersion, p.Name, transformed && p.Transformable, opts)
	io.WriteString(h, p.Source(transformed))
	return hex.EncodeToString(h.Sum(nil))
}

func traceKey(fp string, sz bio.Size) string { return "trace|" + fp + "|" + sz.String() }
func profKey(fp string, sz bio.Size) string  { return "prof|" + fp + "|" + sz.String() }

// profileArtifact is the persisted characterization result: the
// analysis snapshot plus the run's committed-instruction count.
// Fingerprint names the compiled artifact the snapshot was derived
// from; loads (local or peer-fetched) reject an artifact whose
// fingerprint disagrees with the requested one, so a snapshot can
// never be served for the wrong program, variant, or source text.
type profileArtifact struct {
	Fingerprint  string
	Instructions uint64
	Snap         *loadchar.Snapshot
}

// encodeProfileArtifact is the encoding decodeProfileArtifact reads.
func encodeProfileArtifact(art *profileArtifact) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(art); err != nil {
		return nil, fmt.Errorf("encode profile artifact: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeProfileArtifact decodes and structurally validates a
// persisted snapshot against the fingerprint it is supposed to
// satisfy. Shared by the local snapshot tier and the peer-fetch
// verification callback.
//
// gob trusts two sizes on the wire before reading what they describe:
// a message's length (it allocates up to 10 MiB for it) and a map's
// entry count (it sizes the map from it), so a few crafted bytes could
// demand gigabytes. The framing check bounds the first by len(data).
// For the second, a first pass decodes only the fingerprint and skips
// the snapshot, which walks every map entry without storing any: a
// count the bytes cannot back fails there, and the second pass
// allocates in proportion to len(data).
func decodeProfileArtifact(data []byte, fp string) (*profileArtifact, error) {
	if !gobFramed(data) {
		return nil, fmt.Errorf("decode profile artifact: message length exceeds the data")
	}
	var head struct{ Fingerprint string }
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&head); err != nil {
		return nil, fmt.Errorf("decode profile artifact: %w", err)
	}
	if head.Fingerprint != fp {
		return nil, fmt.Errorf("profile artifact fingerprint %.12s != requested %.12s", head.Fingerprint, fp)
	}
	var art profileArtifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&art); err != nil {
		return nil, fmt.Errorf("decode profile artifact: %w", err)
	}
	if art.Snap == nil {
		return nil, fmt.Errorf("profile artifact missing snapshot")
	}
	return &art, nil
}

// gobFramed reports whether data is a sequence of whole gob messages:
// every length prefix is backed by the bytes after it.
func gobFramed(data []byte) bool {
	for len(data) > 0 {
		n, k := gobUint(data)
		if k == 0 || n > uint64(len(data)-k) {
			return false
		}
		data = data[k+int(n):]
	}
	return true
}

// gobUint decodes the gob unsigned integer at the start of b and
// reports how many bytes it took; 0 means b does not start with one.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || n >= len(b) {
		return 0, 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// loadProfile serves a characterization from the analysis snapshot
// persisted under key, the cheapest warm path: no simulation, no
// replay, no recompilation beyond the memoized program needed for
// source attribution. Exact and sampled snapshots share the artifact
// format; only the key and the reported source differ. Damaged
// entries are evicted and report a miss.
func (s *Session) loadProfile(p *bio.Program, key, fp, source string) (*Profile, bool) {
	data, ok := s.store.GetBytes(key)
	if !ok {
		return nil, false
	}
	art, err := decodeProfileArtifact(data, fp)
	if err != nil {
		s.store.Delete(key)
		return nil, false
	}
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, false
	}
	a, err := loadchar.FromSnapshot(prog, art.Snap)
	if err != nil {
		s.store.Delete(key)
		return nil, false
	}
	return &Profile{Name: p.Name, Instructions: art.Instructions, Analysis: a, Source: source}, true
}

// storeProfile persists a characterization result under key. Failures
// are silent: the store is a cache. With a remote tier attached, the
// freshly persisted snapshot is also replicated write-through to the
// fingerprint's successor nodes, so the fleet converges on R+1 copies
// without waiting for pull-on-read.
func (s *Session) storeProfile(prof *Profile, key, fp string) {
	if s.store == nil || prof == nil || prof.Analysis == nil {
		return
	}
	data, err := encodeProfileArtifact(&profileArtifact{Fingerprint: fp, Instructions: prof.Instructions, Snap: prof.Analysis.Snapshot()})
	if err != nil {
		return
	}
	if err := s.store.PutBytes(key, data); err != nil {
		return
	}
	if s.remote != nil {
		s.remote.Replicate(key, data)
	}
}

// storeCharacterize serves a characterization from the persistent
// store: first from a persisted analysis snapshot, then by replaying
// the recorded trace (re-persisting the snapshot on the way out),
// then — with a fleet attached — from a peer's store. The bool
// reports whether the request was settled here; false means the
// caller must simulate cold.
func (s *Session) storeCharacterize(ctx context.Context, p *bio.Program, sz bio.Size, fp string) (*Profile, error, bool) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err), true
	}
	if prof, ok := s.loadProfile(p, profKey(fp, sz), fp, "snapshot"); ok {
		s.profileHits.Add(1)
		return prof, nil, true
	}
	prof, err, done := s.replayCharacterize(ctx, p, sz, fp)
	if done && err == nil {
		s.storeProfile(prof, profKey(fp, sz), fp)
	}
	if done {
		return prof, err, done
	}
	if prof, ok := s.remoteCharacterize(ctx, p, sz, fp); ok {
		return prof, nil, true
	}
	return nil, nil, false
}

// remoteCharacterize is the peer tier: ask the fleet for the
// snapshot, verify it (transfer checksums in the cluster client,
// fingerprint and structure here), admit it to the local store
// (pull-on-read: the next identical request on this node is a plain
// snapshot hit), and serve it. ok=false sends the caller to cold
// simulation.
func (s *Session) remoteCharacterize(ctx context.Context, p *bio.Program, sz bio.Size, fp string) (*Profile, bool) {
	if s.remote == nil || ctx.Err() != nil {
		return nil, false
	}
	key := profKey(fp, sz)
	data, ok := s.remote.Fetch(ctx, key, func(b []byte) error {
		_, err := decodeProfileArtifact(b, fp)
		return err
	})
	if !ok {
		return nil, false
	}
	// Admission happens only after verification; PutBytes recomputes
	// the store's own hash and CRC from the verified bytes.
	if err := s.store.PutBytes(key, data); err != nil {
		return nil, false
	}
	prof, ok := s.loadProfile(p, key, fp, "peer")
	if !ok {
		return nil, false
	}
	s.peerHits.Add(1)
	return prof, true
}

// replayCharacterize serves a characterization from a stored trace.
// The bool reports whether the request was settled here: false means
// no usable trace (miss, corruption, or a retired trace format — such
// entries are evicted) and the caller should simulate cold. Context
// errors settle the request with the error so cancellation is never
// misread as corruption.
func (s *Session) replayCharacterize(ctx context.Context, p *bio.Program, sz bio.Size, fp string) (*Profile, error, bool) {
	// Replay runs sharded over the trace's footer index (ReplayAnalyze
	// sizes workers from the session's jobs, which default to
	// GOMAXPROCS).
	ir, cleanup, ok := s.openTrace(p, sz, fp)
	if !ok {
		return nil, nil, false
	}
	defer cleanup()
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, err, true
	}
	s.replayRuns.Add(1)
	a, err := ReplayAnalyze(ctx, prog, ir, s.jobs)
	if err != nil {
		if isContextErr(err) || ctx.Err() != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err), true
		}
		// Damaged trace: evict it and fall back to cold simulation.
		s.store.Delete(traceKey(fp, sz))
		return nil, nil, false
	}
	if s.jobs > 1 && !a.Exec.Parallel() {
		s.replaySerial.Add(1)
	}
	return &Profile{Name: p.Name, Instructions: ir.TotalEvents(), Analysis: a, Source: "replay"}, nil, true
}

// recorder streams a trace into a store entry. commit finalizes the
// artifact only for a validated run of the expected length; abort
// discards it.
type recorder struct {
	ew *store.EntryWriter
	tw *trace.Writer
}

// startRecording opens a trace writer streaming into a store entry,
// or returns nil without a store. The caller feeds tw the run's
// chunks.
func (s *Session) startRecording(p *bio.Program, sz bio.Size, fp string, prog *isa.Program) *recorder {
	if s.store == nil {
		return nil
	}
	ew, err := s.store.Create(traceKey(fp, sz))
	if err != nil {
		return nil
	}
	tw := trace.NewWriter(ew, trace.Meta{
		Program:     p.Name,
		Fingerprint: fp,
		Size:        sz.String(),
	}, prog)
	return &recorder{ew: ew, tw: tw}
}

func (r *recorder) abort() {
	if r == nil {
		return
	}
	r.ew.Abort()
}

func (r *recorder) commit(instructions uint64) {
	if r == nil {
		return
	}
	if err := r.tw.Close(); err != nil || r.tw.Events() != instructions {
		r.ew.Abort()
		return
	}
	r.ew.Commit()
}
