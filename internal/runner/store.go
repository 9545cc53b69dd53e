package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// artifactSchema versions the session's store keying: bump it when the
// meaning of persisted artifacts changes (profile semantics, trace
// pipeline), so stale entries read as misses. Compiled programs are
// never persisted: a session recompiles from source, which the
// fingerprint hashes.
//
// v2: profile artifacts are bound to what they were computed under,
// verified on load — required once snapshots can arrive from fleet
// peers rather than only from this node's own simulations. Today the
// artifact header carries the hash of the whole store key.
//
// v3: traces record in the run-native v4 format. The fingerprint also
// hashes trace.FormatVersion, but the schema bump guarantees that
// every pre-v4 artifact — including snapshots, whose encoding did not
// change — re-derives under the new trace pipeline rather than mixing
// tiers across the format boundary.
//
// v4: sampled phase signatures project per-instruction counts, not
// basic-block counts, so sampling plans and the sampled snapshots
// stored under them changed.
//
// A change of an artifact's byte layout needs no bump: its header's
// magic and layout version reject the old bytes, which are deleted and
// re-derived (a profile by trace replay) under the same key.
const artifactSchema = 4

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

// Both stored artifact kinds, profiles and timing results, open with
// one header:
//
//	[0:4)   magic
//	[4:8)   layout version, little-endian
//	[8:40)  sha256 of the store key the artifact answers
//
// The key hash binds the bytes to their key: an artifact computed for
// another program, size, sampling configuration or machine is rejected
// under this one, whether it comes from the local store or a peer.
const artifactHeaderLen = 8 + sha256.Size

// Header rejections. They are static so that rejecting bytes never
// allocates.
var (
	errArtifactHeader = errors.New("artifact: bad magic or version")
	errArtifactKey    = errors.New("artifact: key mismatch")
	errArtifactKind   = errors.New("artifact: key names no artifact kind that travels")
)

func appendArtifactHeader(b []byte, magic string, version uint32, key [sha256.Size]byte) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, version)
	return append(b, key[:]...)
}

// artifactBody checks data's header and returns the bytes after it.
func artifactBody(data []byte, magic string, version uint32, key [sha256.Size]byte) ([]byte, error) {
	if len(data) < artifactHeaderLen || string(data[:4]) != magic || binary.LittleEndian.Uint32(data[4:8]) != version {
		return nil, errArtifactHeader
	}
	if !bytes.Equal(data[8:artifactHeaderLen], key[:]) {
		return nil, errArtifactKey
	}
	return data[artifactHeaderLen:], nil
}

// CheckArtifact reports whether data opens with the header a store
// entry under key must carry: the magic and layout version of the key's
// kind and the SHA-256 of key, plus the fixed length of a timing
// artifact. Only profile and timing artifacts travel between nodes, so
// any other key is refused. The body is not decoded.
func CheckArtifact(key string, data []byte) error {
	magic, version := profMagic, uint32(profVersion)
	switch {
	case strings.HasPrefix(key, "eval|"):
		if len(data) != evalArtifactLen {
			return errEvalLength
		}
		magic, version = evalMagic, evalVersion
	case !strings.HasPrefix(key, "prof|"):
		return errArtifactKind
	}
	_, err := artifactBody(data, magic, version, sha256.Sum256([]byte(key)))
	return err
}

// The profile artifact is the persisted characterization result: the
// header, the run's committed-instruction count (8 bytes,
// little-endian), then the analysis snapshot's binary body
// (loadchar.Snapshot.Append).
const (
	profMagic   = "BPPF"
	profVersion = 1
)

var errProfileShort = errors.New("profile artifact: truncated")

func encodeProfileArtifact(key string, instructions uint64, snap *loadchar.Snapshot) []byte {
	b := appendArtifactHeader(nil, profMagic, profVersion, sha256.Sum256([]byte(key)))
	b = binary.LittleEndian.AppendUint64(b, instructions)
	return snap.Append(b)
}

// decodeProfileArtifact decodes a profile artifact for a program of
// nInsts instructions and checks it answers key. What it allocates is
// bounded by len(data) plus the snapshot's per-load tables.
func decodeProfileArtifact(data []byte, key string, nInsts int) (uint64, *loadchar.Snapshot, error) {
	body, err := artifactBody(data, profMagic, profVersion, sha256.Sum256([]byte(key)))
	if err != nil {
		return 0, nil, err
	}
	if len(body) < 8 {
		return 0, nil, errProfileShort
	}
	snap, err := loadchar.DecodeSnapshot(body[8:], nInsts)
	if err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint64(body), snap, nil
}

// Profiles and timing results take one ladder through the store and
// the fleet. Each tier hands candidate bytes to an accept callback,
// which decodes and checks them and keeps what it built; the ladder
// only moves bytes.

// loadLocal reports whether the store holds bytes under key that
// accept takes. An entry accept rejects is deleted, so the caller
// recomputes and rewrites it.
func (s *Session) loadLocal(key string, accept func([]byte) error) bool {
	data, ok := s.store.GetBytes(key)
	if !ok {
		return false
	}
	if accept(data) != nil {
		s.store.Delete(key)
		return false
	}
	return true
}

// loadPeer asks the fleet for the bytes under key. Bytes accept takes
// are admitted to the local store (pull-on-read: the next identical
// request on this node is a local hit); nothing it rejects is.
func (s *Session) loadPeer(ctx context.Context, key string, accept func([]byte) error) bool {
	if s.remote == nil || ctx.Err() != nil {
		return false
	}
	data, ok := s.remote.Fetch(ctx, key, accept)
	if !ok {
		return false
	}
	// The store is a cache: a failed admission only costs the next
	// request a fetch. PutBytes recomputes the store's own hash and
	// CRC from the accepted bytes.
	_ = s.store.PutBytes(key, data)
	return true
}

// putArtifact writes fresh bytes through to the store and, with a
// fleet attached, toward the key's replicas, so the fleet converges on
// R+1 copies without waiting for pull-on-read. Failures are silent:
// the store is a cache.
func (s *Session) putArtifact(key string, data []byte) {
	if s.store == nil || s.store.PutBytes(key, data) != nil {
		return
	}
	if s.remote != nil {
		s.remote.Replicate(key, data)
	}
}

// restoreProfile is the accept callback for the profile artifact under
// key: it decodes the bytes, restores the analysis over prog, and
// keeps the profile in *out. It refuses whatever FromSnapshot refuses,
// so nothing the snapshot tier would evict is ever admitted from a
// peer.
func restoreProfile(p *bio.Program, prog *isa.Program, key, source string, out **Profile) func([]byte) error {
	return func(data []byte) error {
		n, snap, err := decodeProfileArtifact(data, key, len(prog.Insts))
		if err != nil {
			return err
		}
		a, err := loadchar.FromSnapshot(prog, snap)
		if err != nil {
			return err
		}
		*out = &Profile{Name: p.Name, Instructions: n, Analysis: a, Source: source}
		return nil
	}
}

// storeProfile persists a characterization result under key.
func (s *Session) storeProfile(key string, prof *Profile) {
	s.putArtifact(key, encodeProfileArtifact(key, prof.Instructions, prof.Analysis.Snapshot()))
}

// storeCharacterize serves a characterization from the persistent
// store: first from a persisted analysis snapshot, then by replaying
// the recorded trace (re-persisting the snapshot on the way out),
// then — with a fleet attached — from a peer's store. The bool
// reports whether the request was settled here; false means the
// caller must simulate cold.
func (s *Session) storeCharacterize(ctx context.Context, p *bio.Program, sz bio.Size, fp string, prog *isa.Program) (*Profile, error, bool) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err), true
	}
	key := profKey(fp, sz)
	var prof *Profile
	if s.loadLocal(key, restoreProfile(p, prog, key, "snapshot", &prof)) {
		s.profileHits.Add(1)
		return prof, nil, true
	}
	prof, err, done := s.replayCharacterize(ctx, p, sz, fp, prog)
	if done && err == nil {
		s.storeProfile(key, prof)
	}
	if done {
		return prof, err, done
	}
	if s.loadPeer(ctx, key, restoreProfile(p, prog, key, "peer", &prof)) {
		s.peerHits.Add(1)
		return prof, nil, true
	}
	return nil, nil, false
}

// replayCharacterize serves a characterization from a stored trace.
// The bool reports whether the request was settled here: false means
// no usable trace (miss, corruption, or a retired trace format — such
// entries are evicted) and the caller should simulate cold. Context
// errors settle the request with the error so cancellation is never
// misread as corruption.
func (s *Session) replayCharacterize(ctx context.Context, p *bio.Program, sz bio.Size, fp string, prog *isa.Program) (*Profile, error, bool) {
	// Replay runs sharded over the trace's footer index (ReplayAnalyze
	// sizes workers from the session's jobs, which default to
	// GOMAXPROCS).
	ir, cleanup, ok := s.openTrace(p, sz, fp)
	if !ok {
		return nil, nil, false
	}
	defer cleanup()
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

// recorder is the session's one trace recording: a trace writer fed a
// run's chunks, writing into a store entry (storeRecorder) or, with a
// nil entry, into memory. commit finalizes the trace of a validated
// run; abort discards it. A nil recorder records nothing.
type recorder struct {
	name string
	tw   *trace.Writer
	ew   *store.EntryWriter // the store entry, or nil for a trace in mem
	mem  bytes.Buffer
}

// newRecorder opens a recorder writing into ew, or into memory when ew
// is nil.
func newRecorder(p *bio.Program, sz bio.Size, fp string, prog *isa.Program, ew *store.EntryWriter) *recorder {
	r := &recorder{name: p.Name, ew: ew}
	var w io.Writer = &r.mem
	if ew != nil {
		w = ew
	}
	r.tw = trace.NewWriter(w, trace.Meta{Program: p.Name, Fingerprint: fp, Size: sz.String()}, prog)
	return r
}

// storeRecorder opens a recorder into the store entry for (p, sz), or
// returns nil when the session has no store or the store refuses one.
func (s *Session) storeRecorder(p *bio.Program, sz bio.Size, fp string, prog *isa.Program) *recorder {
	if s.store == nil {
		return nil
	}
	ew, err := s.store.Create(traceKey(fp, sz))
	if err != nil {
		return nil
	}
	return newRecorder(p, sz, fp, prog, ew)
}

// record runs p once with only rec attached and returns the run's
// committed-instruction count. A failed run aborts rec.
func (s *Session) record(ctx context.Context, p *bio.Program, sz bio.Size, prog *isa.Program, rec *recorder) (uint64, error) {
	res, err := p.Run(ctx, prog, sz, func(m *sim.Machine) {
		s.runs.Add(1)
		m.SetChunkSink(trace.ChunkEvents, rec.tw.WriteChunk)
	})
	if err != nil {
		rec.abort()
		return 0, err
	}
	return res.Instructions, nil
}

func (r *recorder) abort() {
	if r != nil && r.ew != nil {
		r.ew.Abort()
	}
}

// commit finalizes the trace of a validated run that committed n
// instructions. It is the one check that the writer closed cleanly and
// saw exactly n events; a store entry that fails it, or fails to
// commit, is discarded and the failure returned.
func (r *recorder) commit(n uint64) error {
	if r == nil {
		return nil
	}
	err := r.tw.Close()
	if err != nil {
		err = fmt.Errorf("%s: close trace: %w", r.name, err)
	} else if r.tw.Events() != n {
		err = fmt.Errorf("%s: trace recorded %d events, run committed %d", r.name, r.tw.Events(), n)
	}
	switch {
	case r.ew == nil:
		return err
	case err != nil:
		r.ew.Abort()
		return err
	}
	return r.ew.Commit()
}
