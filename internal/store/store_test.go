package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func open(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	data := []byte("characterization snapshot artifact")
	if err := s.PutBytes("prof|abc|test", data); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBytes("prof|abc|test")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("GetBytes = %q, %v", got, ok)
	}
	if _, ok := s.GetBytes("prof|other|test"); ok {
		t.Fatal("missing key reported present")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.BytesOnDisk != int64(len(data)) {
		t.Fatalf("stats %+v", st)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.PutBytes("k1", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes("k2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	got, ok := s2.GetBytes("k1")
	if !ok || string(got) != "one" {
		t.Fatalf("k1 after reopen = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 2 {
		t.Fatalf("stats after reopen %+v", st)
	}
}

func TestStreamingWriterAndReader(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	w, err := s.Create("trace|x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("chunks")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r, size, ok := s.OpenReader("trace|x")
	if !ok {
		t.Fatal("OpenReader miss after commit")
	}
	defer r.Close()
	if size != int64(len("hello chunks")) {
		t.Fatalf("size %d", size)
	}
	data, err := io.ReadAll(r)
	if err != nil || string(data) != "hello chunks" {
		t.Fatalf("read %q, %v", data, err)
	}
	// Indexed trace readers read the footer and chunks at offsets.
	tail := make([]byte, len("chunks"))
	if _, err := r.ReadAt(tail, 6); err != nil || string(tail) != "chunks" {
		t.Fatalf("ReadAt %q, %v", tail, err)
	}
}

func TestAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	w, err := s.Create("k")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("partial"))
	w.Abort()
	if _, ok := s.GetBytes("k"); ok {
		t.Fatal("aborted artifact visible")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "objects" && e.Name() != indexName {
			t.Fatalf("leftover file %s", e.Name())
		}
	}
}

func TestCorruptionDetectedAndEvicted(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.PutBytes("k", []byte("pristine content")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the object file behind the store's back.
	var objPath string
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			objPath = path
		}
		return nil
	})
	if objPath == "" {
		t.Fatal("object file not found")
	}
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(objPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBytes("k"); ok {
		t.Fatal("corrupted artifact returned as a hit")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("corrupted entry not evicted: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := open(t, t.TempDir(), 30)
	pay := func(b byte) []byte { return bytes.Repeat([]byte{b}, 10) }
	for i, k := range []string{"a", "b", "c"} {
		if err := s.PutBytes(k, pay(byte('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the least recently used, then overflow.
	if _, ok := s.GetBytes("a"); !ok {
		t.Fatal("a missing")
	}
	if err := s.PutBytes("d", pay('3')); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBytes("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.GetBytes(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.BytesOnDisk != 30 {
		t.Fatalf("stats %+v", st)
	}
}

func TestContentDedup(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	data := []byte("shared content")
	if err := s.PutBytes("k1", data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes("k2", data); err != nil {
		t.Fatal(err)
	}
	// Two keys, one object file.
	var objects int
	filepath.WalkDir(filepath.Join(s.Dir(), "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			objects++
		}
		return nil
	})
	if objects != 1 {
		t.Fatalf("%d object files for identical content", objects)
	}
	// Deleting one key must keep the shared object alive.
	s.Delete("k1")
	if got, ok := s.GetBytes("k2"); !ok || !bytes.Equal(got, data) {
		t.Fatal("shared object removed with first key")
	}
}

func TestOrphanSweepOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.PutBytes("k", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	orphan := filepath.Join(dir, "objects", "ff", "ff00")
	os.MkdirAll(filepath.Dir(orphan), 0o755)
	os.WriteFile(orphan, []byte("orphan"), 0o644)

	s2 := open(t, dir, 0)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan object survived reopen")
	}
	if _, ok := s2.GetBytes("k"); !ok {
		t.Fatal("live entry lost during sweep")
	}
}

func TestTornIndexRecovered(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.PutBytes("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0) // must not fail
	if _, ok := s2.GetBytes("k"); ok {
		t.Fatal("entry resurrected from torn index")
	}
}

func TestReplaceKey(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.PutBytes("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes("k", []byte("value-two")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBytes("k")
	if !ok || string(got) != "value-two" {
		t.Fatalf("after replace: %q, %v", got, ok)
	}
	if st := s.Stats(); st.Entries != 1 || st.BytesOnDisk != int64(len("value-two")) {
		t.Fatalf("stats after replace %+v", st)
	}
}

// TestOversizedObjectPinnedOnCommit: committing an object larger than
// the byte cap must keep THAT object (evicting everything else) rather
// than deleting what the caller was just told persisted. A later
// commit may then evict it normally.
func TestOversizedObjectPinnedOnCommit(t *testing.T) {
	s := open(t, t.TempDir(), 30)
	for _, k := range []string{"a", "b"} {
		if err := s.PutBytes(k, bytes.Repeat([]byte(k), 10)); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{'X'}, 50) // alone exceeds the 30-byte cap
	if err := s.PutBytes("big", big); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetBytes("big")
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("just-committed oversized object was evicted")
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := s.GetBytes(k); ok {
			t.Fatalf("%s survived an over-cap commit", k)
		}
	}
	if st := s.Stats(); st.Entries != 1 || st.BytesOnDisk != 50 {
		t.Fatalf("stats after oversized commit %+v", st)
	}
	// The pin lasts only for the commit that created it: the next
	// commit sees "big" as ordinary LRU fodder.
	if err := s.PutBytes("next", bytes.Repeat([]byte{'n'}, 10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetBytes("big"); ok {
		t.Fatal("oversized object survived the following commit")
	}
	if got, ok := s.GetBytes("next"); !ok || len(got) != 10 {
		t.Fatal("latest commit missing after eviction")
	}
}

// TestEvictionExactCapBoundary: filling the store to exactly its cap
// must not evict; one byte more must evict exactly one LRU entry.
func TestEvictionExactCapBoundary(t *testing.T) {
	s := open(t, t.TempDir(), 30)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.PutBytes(k, bytes.Repeat([]byte(k), 10)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Evictions != 0 || st.Entries != 3 || st.BytesOnDisk != 30 {
		t.Fatalf("eviction at exactly the cap: %+v", st)
	}
	// One more byte tips it over: the oldest entry goes, and only it.
	if err := s.PutBytes("d", []byte{'d'}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.BytesOnDisk != 21 {
		t.Fatalf("eviction one byte over the cap: %+v", st)
	}
	if _, ok := s.GetBytes("a"); ok {
		t.Fatal("LRU entry a survived")
	}
}

// TestOpenObjectByKey covers the wire-serving surface: OpenObject
// streams the artifact under a key with the metadata the transfer
// headers carry, without moving hit/miss counters or LRU clocks.
func TestOpenObjectByKey(t *testing.T) {
	s := open(t, t.TempDir(), 60)
	data := bytes.Repeat([]byte("w"), 30)
	if err := s.PutBytes("prof|fp|classB", data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBytes("prof|other|classB", bytes.Repeat([]byte("o"), 20)); err != nil {
		t.Fatal(err)
	}
	rc, info, ok := s.OpenObject("prof|fp|classB")
	if !ok {
		t.Fatal("OpenObject missed a stored key")
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if want := (ObjectInfo{Hash: hex.EncodeToString(sum[:]), Size: 30, CRC: crc32.ChecksumIEEE(data)}); info != want {
		t.Fatalf("OpenObject info %+v, want %+v", info, want)
	}
	if !bytes.Equal(body, data) {
		t.Fatalf("OpenObject body %q", body)
	}
	if _, _, ok := s.OpenObject("prof|missing|classB"); ok {
		t.Fatal("missing key opened")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("wire reads moved cache counters: %+v", st)
	}
	// The opened entry is still the least recently used: the next
	// commit over the cap evicts it, not the younger one.
	if err := s.PutBytes("prof|new|classB", bytes.Repeat([]byte("n"), 20)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.OpenObject("prof|fp|classB"); ok {
		t.Fatal("OpenObject bumped the LRU clock: the opened entry survived eviction")
	}
	if _, _, ok := s.OpenObject("prof|other|classB"); !ok {
		t.Fatal("younger entry evicted instead of the opened one")
	}
}

// TestCraftedIndexHashesDropped: index.json is read from disk, so a
// hash that is not 64 lowercase hex digits must never reach a path. A
// short hash would panic Open; a "../" hash would let Delete remove a
// file outside the store; an uppercase one names no object Commit
// writes, so its file is swept as an orphan.
func TestCraftedIndexHashesDropped(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	victim := filepath.Join(root, "victim")
	if err := os.WriteFile(victim, []byte("not the store's"), 0o644); err != nil {
		t.Fatal(err)
	}
	upper := strings.Repeat("AB", 32)
	stray := filepath.Join(dir, "objects", upper[:2], upper)
	if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx := indexFile{Version: 1, Clock: 3, Entries: map[string]entry{
		"short":  {Hash: "a", Size: 1, Clock: 1},
		"escape": {Hash: "../victim", Size: 15, Clock: 2},
		"upper":  {Hash: upper, Size: 5, Clock: 3},
	}}
	data, err := json.Marshal(&idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, 0)
	defer s.Close()
	if st := s.Stats(); st.Entries != 0 || st.BytesOnDisk != 0 {
		t.Fatalf("crafted entries loaded: %+v", st)
	}
	for key := range idx.Entries {
		if _, ok := s.GetBytes(key); ok {
			t.Fatalf("crafted key %q served", key)
		}
		s.Delete(key)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("file outside the store removed: %v", err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("object under an invalid hash not swept: %v", err)
	}
}
