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
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// artifactSchema versions the session's store keying: bump it when the
// meaning of persisted artifacts changes (compiled-program encoding,
// profile semantics), so stale entries read as misses.
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

func progKey(fp string) string               { return "prog|" + fp }
func traceKey(fp string, sz bio.Size) string { return "trace|" + fp + "|" + sz.String() }
func profKey(fp string, sz bio.Size) string  { return "prof|" + fp + "|" + sz.String() }

// encodeProgram serializes a compiled program for the store. Only
// exported fields travel; the lazy symbol index is rebuilt on load.
func encodeProgram(prog *isa.Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(prog); err != nil {
		return nil, fmt.Errorf("encode program: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeProgram(data []byte) (*isa.Program, error) {
	var prog isa.Program
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&prog); err != nil {
		return nil, fmt.Errorf("decode program: %w", err)
	}
	return &prog, nil
}

// loadCompiled returns the compiled program persisted under fp, if the
// store holds an intact copy.
func (s *Session) loadCompiled(fp string) *isa.Program {
	if s.store == nil {
		return nil
	}
	data, ok := s.store.GetBytes(progKey(fp))
	if !ok {
		return nil
	}
	prog, err := decodeProgram(data)
	if err != nil {
		s.store.Delete(progKey(fp))
		return nil
	}
	return prog
}

// storeCompiled persists a freshly compiled program. Failures are
// deliberately silent: the store is a cache, not a dependency.
func (s *Session) storeCompiled(fp string, prog *isa.Program) {
	if s.store == nil {
		return
	}
	if data, err := encodeProgram(prog); err == nil {
		s.store.PutBytes(progKey(fp), data)
	}
}

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

// decodeProfileArtifact decodes and structurally validates a
// persisted snapshot against the fingerprint it is supposed to
// satisfy. Shared by the local snapshot tier and the peer-fetch
// verification callback.
func decodeProfileArtifact(data []byte, fp string) (*profileArtifact, error) {
	var art profileArtifact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&art); err != nil {
		return nil, fmt.Errorf("decode profile artifact: %w", err)
	}
	if art.Snap == nil {
		return nil, fmt.Errorf("profile artifact missing snapshot")
	}
	if art.Fingerprint != fp {
		return nil, fmt.Errorf("profile artifact fingerprint %.12s != requested %.12s", art.Fingerprint, fp)
	}
	return &art, nil
}

// loadProfile serves a characterization from a persisted analysis
// snapshot, the cheapest warm path: no simulation, no replay, no
// recompilation beyond the memoized program needed for source
// attribution. Damaged entries are evicted and report a miss.
func (s *Session) loadProfile(p *bio.Program, sz bio.Size, fp string) (*Profile, bool) {
	key := profKey(fp, sz)
	data, ok := s.store.GetBytes(key)
	if !ok {
		return nil, false
	}
	art, err := decodeProfileArtifact(data, fp)
	if err != nil {
		s.store.Delete(key)
		return nil, false
	}
	prog := s.loadCompiled(fp)
	if prog == nil {
		var err error
		prog, err = s.Compile(p, false, compiler.Default())
		if err != nil {
			return nil, false
		}
	}
	a, err := loadchar.FromSnapshot(prog, art.Snap)
	if err != nil {
		s.store.Delete(key)
		return nil, false
	}
	return &Profile{Name: p.Name, Instructions: art.Instructions, Analysis: a, Source: "snapshot"}, true
}

// storeProfile persists a characterization result. Like storeCompiled,
// failures are silent: the store is a cache. With a remote tier
// attached, the freshly persisted snapshot is also replicated
// write-through to the fingerprint's successor nodes, so the fleet
// converges on R+1 copies without waiting for pull-on-read.
func (s *Session) storeProfile(prof *Profile, sz bio.Size, fp string) {
	if s.store == nil || prof == nil || prof.Analysis == nil {
		return
	}
	var buf bytes.Buffer
	art := profileArtifact{Fingerprint: fp, Instructions: prof.Instructions, Snap: prof.Analysis.Snapshot()}
	if err := gob.NewEncoder(&buf).Encode(&art); err != nil {
		return
	}
	key := profKey(fp, sz)
	if err := s.store.PutBytes(key, buf.Bytes()); err != nil {
		return
	}
	if s.remote != nil {
		s.remote.Replicate(key, buf.Bytes())
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
	if prof, ok := s.loadProfile(p, sz, fp); ok {
		s.profileHits.Add(1)
		return prof, nil, true
	}
	prof, err, done := s.replayCharacterize(ctx, p, sz, fp)
	if done && err == nil {
		s.storeProfile(prof, sz, fp)
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
	prof, ok := s.loadProfile(p, sz, fp)
	if !ok {
		return nil, false
	}
	s.peerHits.Add(1)
	prof.Source = "peer"
	return prof, true
}

// replayCharacterize serves a characterization from a stored trace.
// The bool reports whether the request was settled here: false means
// no usable trace (miss, corruption, or a retired trace format — such
// entries are evicted) and the caller should simulate cold. Context
// errors settle the request with the error so cancellation is never
// misread as corruption.
func (s *Session) replayCharacterize(ctx context.Context, p *bio.Program, sz bio.Size, fp string) (*Profile, error, bool) {
	key := traceKey(fp, sz)
	rc, size, ok := s.store.OpenReader(key)
	if !ok {
		return nil, nil, false
	}
	defer rc.Close()

	evict := func() (*Profile, error, bool) {
		s.store.Delete(key)
		return nil, nil, false
	}

	// The store hands back the object file, so the trace's footer index
	// is reachable through io.ReaderAt and replay runs sharded
	// (ReplayAnalyze sizes workers from the session's jobs, which
	// default to GOMAXPROCS).
	ra, isRA := rc.(io.ReaderAt)
	if !isRA {
		return evict()
	}
	ir, err := trace.NewIndexedReader(ra, size)
	if err != nil {
		return evict()
	}
	if m := ir.Meta(); m.Program != p.Name || m.Fingerprint != fp {
		return evict()
	}
	prog, err := s.replayProgram(p, fp)
	if err != nil {
		return nil, err, true
	}
	s.replayRuns.Add(1)
	a, err := ReplayAnalyze(ctx, prog, ir, s.jobs)
	if err != nil {
		if isContextErr(err) || ctx.Err() != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err), true
		}
		return evict() // damaged trace: fall back to cold simulation
	}
	if s.jobs > 1 && !a.Exec.Parallel() {
		s.replaySerial.Add(1)
	}
	return &Profile{Name: p.Name, Instructions: ir.TotalEvents(), Analysis: a, Source: "replay"}, nil, true
}

// replayProgram returns the compiled program a trace rebinds to:
// persisted binary first, memoized compile otherwise. The lazy symbol
// index is forced before goroutines share the program.
func (s *Session) replayProgram(p *bio.Program, fp string) (*isa.Program, error) {
	prog := s.loadCompiled(fp)
	if prog == nil {
		var err error
		prog, err = s.Compile(p, false, compiler.Default())
		if err != nil {
			return nil, err
		}
	}
	prog.Symbol("")
	return prog, nil
}

// recorder wires a trace writer into a machine when a store is
// attached. commit finalizes the artifact only for a validated run of
// the expected length; abort discards it.
type recorder struct {
	ew *store.EntryWriter
	tw *trace.Writer
	b  *runstream.Builder
}

// startRecording attaches a trace writer streaming into a store entry.
// With an analysis a, one runstream.Builder feeds both a and the
// writer, so the run's chunks are built once; the caller attaches a
// itself when startRecording returns nil.
func (s *Session) startRecording(m *sim.Machine, p *bio.Program, sz bio.Size, fp string, prog *isa.Program, a *loadchar.Analysis) *recorder {
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
	r := &recorder{ew: ew, tw: tw}
	if a == nil {
		m.AddBatchObserver(tw)
		return r
	}
	r.b = runstream.NewBuilder(prog, trace.ChunkEvents, func(ch *runstream.Chunk) {
		a.ObserveChunk(ch)
		tw.WriteChunk(ch)
	})
	m.AddBatchObserver(r.b)
	return r
}

// flush hands a shared Builder's final partial chunk to the analysis
// and the writer. Its error — a stream that is not run-representable —
// fails the characterization too, since the analysis saw the same
// chunks.
func (r *recorder) flush() error {
	if r == nil || r.b == nil {
		return nil
	}
	r.b.Flush()
	return r.b.Err()
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
