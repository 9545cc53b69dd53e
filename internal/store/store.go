// Package store is a content-addressed on-disk artifact cache: the
// durable layer under runner.Session that lets recorded traces,
// characterization snapshots and timing results outlive the process.
// Artifacts are looked up by a caller-chosen key (runner derives it
// from the program fingerprint, workload size, and trace format
// version) and stored as objects/<hh>/<sha256> blobs, so identical
// content is stored once no matter how many keys point at it. Writes
// land in a temp file and rename into place atomically; an index file
// maps keys to objects with sizes, checksums, and LRU clocks;
// corrupted or truncated artifacts are detected on read and evicted;
// and a configurable byte cap is enforced by least-recently-used
// eviction.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// indexName is the key→object map persisted in the store root.
const indexName = "index.json"

// entry is one key's record in the index.
type entry struct {
	// Hash is the hex sha256 of the object's content.
	Hash string `json:"hash"`
	// Size is the object's byte length.
	Size int64 `json:"size"`
	// CRC is the content's CRC32 (IEEE), verified on whole-artifact
	// reads. Streaming artifacts (traces) carry their own per-chunk
	// CRCs, so OpenReader skips this.
	CRC uint32 `json:"crc"`
	// Clock is the logical LRU timestamp of the last access.
	Clock uint64 `json:"clock"`
}

type indexFile struct {
	Version int              `json:"version"`
	Clock   uint64           `json:"clock"`
	Entries map[string]entry `json:"entries"`
}

// Stats is a snapshot of the store's counters. Hits/Misses/Evictions
// and WriteErrors count since Open; Entries/BytesOnDisk describe
// current contents.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// WriteErrors counts the writes the store refused: every error
	// Create or EntryWriter.Commit returned, PutBytes' included.
	WriteErrors uint64 `json:"write_errors"`
	Entries     int    `json:"entries"`
	BytesOnDisk int64  `json:"bytes_on_disk"`
}

// Store is the artifact cache. All methods are safe for concurrent
// use.
type Store struct {
	dir      string
	maxBytes int64

	mu        sync.Mutex
	entries   map[string]entry
	clock     uint64
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64

	writeErrors atomic.Uint64
}

// Open opens (creating if needed) a store rooted at dir. maxBytes
// caps the total object bytes on disk; <= 0 means unlimited. A
// pre-existing index is loaded and reconciled against the objects
// actually present: entries whose objects vanished are dropped, and
// orphaned objects are removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[string]entry)}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked("")
	return s, nil
}

func (s *Store) loadIndex() error {
	data, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if os.IsNotExist(err) {
		return s.sweepOrphans()
	}
	if err != nil {
		return fmt.Errorf("store: read index: %w", err)
	}
	var idx indexFile
	if err := json.Unmarshal(data, &idx); err != nil {
		// A torn index is recoverable: drop it (objects without index
		// entries are swept as orphans) rather than failing to open.
		idx = indexFile{}
	}
	s.clock = idx.Clock
	for key, e := range idx.Entries {
		if !validHash(e.Hash) {
			continue // not a name Commit writes; its file is an orphan
		}
		fi, err := os.Stat(s.objectPath(e.Hash))
		if err != nil || fi.Size() != e.Size {
			continue // object vanished or was truncated
		}
		s.entries[key] = e
		s.bytes += e.Size
	}
	return s.sweepOrphans()
}

// sweepOrphans removes object files no index entry references.
func (s *Store) sweepOrphans() error {
	live := make(map[string]bool, len(s.entries))
	for _, e := range s.entries {
		live[e.Hash] = true
	}
	root := filepath.Join(s.dir, "objects")
	dirs, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("store: scan objects: %w", err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if !live[f.Name()] {
				os.Remove(filepath.Join(root, d.Name(), f.Name()))
			}
		}
	}
	return nil
}

// validHash reports whether h is a hex SHA-256 as Commit names
// objects: 64 lowercase hex digits. Index entries are read from disk,
// so loadIndex drops any other hash before it can reach objectPath
// (a short hash would panic there, a "../" one would escape the
// object tree).
func validHash(h string) bool {
	if len(h) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash)
}

// persistIndexLocked writes the index atomically (temp + rename).
func (s *Store) persistIndexLocked() error {
	idx := indexFile{Version: 1, Clock: s.clock, Entries: s.entries}
	data, err := json.Marshal(&idx)
	if err != nil {
		return fmt.Errorf("store: encode index: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".index-*")
	if err != nil {
		return fmt.Errorf("store: index temp: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: write index: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: close index: %w", err)
	}
	if err := os.Rename(name, filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: install index: %w", err)
	}
	return nil
}

// evictLocked removes least-recently-used entries until the store fits
// its byte cap. pin names a key that is never evicted here — the entry
// the caller just committed — so storing a single object larger than
// the cap keeps that object (everything else is evicted and the store
// temporarily exceeds its cap) instead of silently dropping what the
// caller was just told persisted.
func (s *Store) evictLocked(pin string) {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type kv struct {
		key string
		e   entry
	}
	all := make([]kv, 0, len(s.entries))
	for k, e := range s.entries {
		all = append(all, kv{k, e})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].e.Clock < all[j].e.Clock })
	for _, x := range all {
		if s.bytes <= s.maxBytes {
			break
		}
		if x.key == pin {
			continue
		}
		s.removeLocked(x.key)
		s.evictions++
	}
}

// removeLocked drops a key and, if no other key shares its object,
// the object file.
func (s *Store) removeLocked(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	delete(s.entries, key)
	s.bytes -= e.Size
	for _, other := range s.entries {
		if other.Hash == e.Hash {
			return // object still referenced
		}
	}
	os.Remove(s.objectPath(e.Hash))
}

// touchLocked bumps a key's LRU clock.
func (s *Store) touchLocked(key string) {
	e := s.entries[key]
	s.clock++
	e.Clock = s.clock
	s.entries[key] = e
}

// GetBytes returns the artifact stored under key, verifying its
// checksum. A missing key, unreadable object, or checksum mismatch is
// a miss (corrupt entries are evicted), so callers always regenerate
// on false.
func (s *Store) GetBytes(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	path := s.objectPath(e.Hash)
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err != nil || int64(len(data)) != e.Size || crc32.ChecksumIEEE(data) != e.CRC {
		s.mu.Lock()
		s.misses++
		if cur, ok := s.entries[key]; ok && cur.Hash == e.Hash {
			s.removeLocked(key)
			s.persistIndexLocked()
		}
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.touchLocked(key)
	s.mu.Unlock()
	return data, true
}

// OpenReader opens the artifact under key for streaming without
// whole-content verification — intended for self-validating formats
// (traces CRC every chunk). The size returned is the indexed object
// size. The caller closes the file.
func (s *Store) OpenReader(key string) (*os.File, int64, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, 0, false
	}
	path := s.objectPath(e.Hash)
	s.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		s.mu.Lock()
		s.misses++
		if cur, ok := s.entries[key]; ok && cur.Hash == e.Hash {
			s.removeLocked(key)
			s.persistIndexLocked()
		}
		s.mu.Unlock()
		return nil, 0, false
	}
	s.mu.Lock()
	s.hits++
	s.touchLocked(key)
	s.mu.Unlock()
	return f, e.Size, true
}

// ObjectInfo describes one stored artifact for wire serving: the
// content hash that addresses it, its byte length, and the CRC32 the
// store verified it against. Peers re-verify received bodies against
// all three.
type ObjectInfo struct {
	Hash string
	Size int64
	CRC  uint32
}

// OpenObject opens the artifact under key for streaming to a peer
// (the HTTP handler copies the file straight to the response), with
// the metadata the transfer headers carry. Unlike GetBytes and
// OpenReader it neither bumps the LRU clock nor counts a hit or miss:
// peers probing for artifacts should not keep them artificially hot.
func (s *Store) OpenObject(key string) (io.ReadCloser, ObjectInfo, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return nil, ObjectInfo{}, false
	}
	f, err := os.Open(s.objectPath(e.Hash))
	if err != nil {
		return nil, ObjectInfo{}, false
	}
	return f, ObjectInfo{Hash: e.Hash, Size: e.Size, CRC: e.CRC}, true
}

// PutBytes stores data under key, replacing any previous artifact.
func (s *Store) PutBytes(key string, data []byte) error {
	w, err := s.Create(key)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}

// Delete removes key's artifact if present.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; !ok {
		return
	}
	s.removeLocked(key)
	s.persistIndexLocked()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
		WriteErrors: s.writeErrors.Load(),
		Entries:     len(s.entries),
		BytesOnDisk: s.bytes,
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close persists the index. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistIndexLocked()
}

// EntryWriter streams one artifact into the store. Content is hashed
// and checksummed as it is written to a temp file; Commit renames it
// into the object tree and updates the index atomically, so readers
// never observe a partial artifact. Either Commit or Abort must be
// called.
type EntryWriter struct {
	s    *Store
	key  string
	f    *os.File
	path string
	h    interface{ Sum([]byte) []byte }
	crc  uint32
	n    int64
	mw   io.Writer
	done bool
}

// refused counts err, if any, as a write the store refused.
func (s *Store) refused(err error) error {
	if err != nil {
		s.writeErrors.Add(1)
	}
	return err
}

// Create begins writing an artifact for key.
func (s *Store) Create(key string) (*EntryWriter, error) {
	f, err := os.CreateTemp(s.dir, ".artifact-*")
	if err != nil {
		return nil, s.refused(fmt.Errorf("store: temp artifact: %w", err))
	}
	h := sha256.New()
	return &EntryWriter{
		s:    s,
		key:  key,
		f:    f,
		path: f.Name(),
		h:    h,
		mw:   io.MultiWriter(f, h),
	}, nil
}

// Write implements io.Writer.
func (w *EntryWriter) Write(p []byte) (int, error) {
	n, err := w.mw.Write(p)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:n])
	w.n += int64(n)
	return n, err
}

// Abort discards the pending artifact.
func (w *EntryWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.path)
}

// Commit finalizes the artifact: fsyncs and renames the object into
// place, records the index entry, and enforces the byte cap.
func (w *EntryWriter) Commit() error { return w.s.refused(w.commit()) }

func (w *EntryWriter) commit() error {
	if w.done {
		return fmt.Errorf("store: commit after close")
	}
	w.done = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		os.Remove(w.path)
		return fmt.Errorf("store: sync artifact: %w", err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.path)
		return fmt.Errorf("store: close artifact: %w", err)
	}
	hash := hex.EncodeToString(w.h.Sum(nil))
	obj := w.s.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
		os.Remove(w.path)
		return fmt.Errorf("store: object dir: %w", err)
	}
	if err := os.Rename(w.path, obj); err != nil {
		os.Remove(w.path)
		return fmt.Errorf("store: install object: %w", err)
	}

	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[w.key]; ok {
		if old.Hash == hash {
			// Same content re-stored: just refresh the clock.
			s.touchLocked(w.key)
			return s.persistIndexLocked()
		}
		s.removeLocked(w.key)
	}
	s.clock++
	s.entries[w.key] = entry{Hash: hash, Size: w.n, CRC: w.crc, Clock: s.clock}
	s.bytes += w.n
	s.evictLocked(w.key)
	return s.persistIndexLocked()
}
