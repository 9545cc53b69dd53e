package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzObjects are the object files every FuzzStoreIndex directory
// holds before Open reads the fuzzed index.
var fuzzObjects = [][]byte{[]byte("alpha"), []byte("bravo bravo"), bytes.Repeat([]byte{7}, 100)}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FuzzStoreIndex opens a store over arbitrary index.json bytes and an
// arbitrary byte cap, in a directory holding three real objects. Open
// must return a store or an error, never panic, and must never index
// an entry whose object is missing or has a size other than the
// indexed one; the store's byte count must be the sum of what it
// indexes, and every indexed key must read back at its size.
func FuzzStoreIndex(f *testing.F) {
	seed := func(entries map[string]entry) []byte {
		data, err := json.Marshal(&indexFile{Version: 1, Clock: 9, Entries: entries})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	h := make([]string, len(fuzzObjects))
	for i, b := range fuzzObjects {
		h[i] = hashOf(b)
	}
	valid := seed(map[string]entry{
		"a": {Hash: h[0], Size: 5, Clock: 1},
		"b": {Hash: h[1], Size: 11, Clock: 2},
		"c": {Hash: h[2], Size: 100, Clock: 3},
		"d": {Hash: h[0], Size: 5, Clock: 4}, // shares a's object
	})
	f.Add(valid, int64(0))
	f.Add(valid, int64(50))
	f.Add(seed(map[string]entry{
		"wrong-size": {Hash: h[1], Size: 10},
		"missing":    {Hash: hashOf([]byte("gone")), Size: 4},
		"negative":   {Hash: h[0], Size: -5},
		"short":      {Hash: "ab", Size: 5},
		"escape":     {Hash: "../" + h[0][3:], Size: 5},
		"upper":      {Hash: strings.ToUpper(h[2]), Size: 100},
	}), int64(0))
	f.Add(valid[:len(valid)/2], int64(0)) // torn index
	f.Add([]byte(`{"entries":{"x":{"hash":1}}}`), int64(0))
	f.Add([]byte(`null`), int64(-1))

	f.Fuzz(func(t *testing.T, index []byte, maxBytes int64) {
		dir := t.TempDir()
		for _, b := range fuzzObjects {
			path := filepath.Join(dir, "objects", hashOf(b)[:2], hashOf(b))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, indexName), index, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, maxBytes)
		if err != nil {
			return
		}
		defer s.Close()
		var total int64
		for key, e := range s.entries {
			if !validHash(e.Hash) {
				t.Fatalf("key %q indexed under invalid hash %q", key, e.Hash)
			}
			fi, err := os.Stat(s.objectPath(e.Hash))
			if err != nil || fi.Size() != e.Size {
				t.Fatalf("key %q indexed at %d bytes over object %s: %v", key, e.Size, e.Hash, err)
			}
			total += e.Size
		}
		if total != s.bytes {
			t.Fatalf("store counts %d bytes, its entries hold %d", s.bytes, total)
		}
		for key, e := range s.entries {
			rc, size, ok := s.OpenReader(key)
			if !ok || size != e.Size {
				t.Fatalf("key %q: OpenReader ok=%v size=%d, indexed %d", key, ok, size, e.Size)
			}
			rc.Close()
		}
	})
}
