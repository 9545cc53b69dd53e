package loadchar

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestSnapshotRoundTrip proves a snapshot — including a binary
// encode/decode cycle, the body of the stored profile artifact —
// renders byte-identical reports to the live analysis it was taken
// from, and that the encoding is canonical: two snapshots of one
// analysis encode to equal bytes, and a decoded body re-encodes to
// its own bytes.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, name := range []string{"hmmsearch", "predator"} {
		t.Run(name, func(t *testing.T) {
			prog, live, _ := captureSlabs(t, name)
			want := RenderProfile(name, "test", live, 10)

			body := live.Snapshot().Append(nil)
			if again := live.Snapshot().Append(nil); !bytes.Equal(again, body) {
				t.Fatal("two encodes of one analysis differ")
			}
			decoded, err := DecodeSnapshot(body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(decoded.Append(nil), body) {
				t.Fatal("decoded snapshot does not re-encode to its bytes")
			}
			restored, err := FromSnapshot(prog, decoded)
			if err != nil {
				t.Fatal(err)
			}
			got := RenderProfile(name, "test", restored, 10)
			if got != want {
				t.Errorf("restored profile differs:\n--- live ---\n%s\n--- restored ---\n%s", want, got)
			}
			// The candidate selection walks different report paths than
			// RenderProfile; check it agrees too.
			lc := live.Candidates(0.01, 0.05, 0.2)
			rc := restored.Candidates(0.01, 0.05, 0.2)
			if len(lc) != len(rc) {
				t.Fatalf("candidate counts differ: %d vs %d", len(lc), len(rc))
			}
			for i := range lc {
				if lc[i] != rc[i] {
					t.Errorf("candidate %d differs: %+v vs %+v", i, lc[i], rc[i])
				}
			}
		})
	}
}

// TestDecodeSnapshotRejects: DecodeSnapshot takes exactly the bodies
// Append writes. A body cut short or with a byte after it, a table
// whose PCs descend or repeat, and a count its bytes cannot back are
// each rejected.
func TestDecodeSnapshotRejects(t *testing.T) {
	s := &Snapshot{LoadCounts: map[int32]uint64{1: 10, 2: 20}}
	body := s.Append(nil)
	if _, err := DecodeSnapshot(body); err != nil {
		t.Fatalf("honest body rejected: %v", err)
	}
	// LoadCounts follows the scalar counters: a count, then 12-byte
	// (pc, value) entries.
	table := 8 * len(s.words())
	patch := func(off int, v uint32) []byte {
		b := append([]byte(nil), body...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	for name, bad := range map[string][]byte{
		"truncated":       body[:len(body)-1],
		"trailing byte":   append(append([]byte(nil), body...), 0),
		"descending PCs":  patch(table+4, 3),
		"repeated PC":     patch(table+4+12, 1),
		"count too large": patch(table, 1<<20),
		"empty":           {},
	} {
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRestoredAnalysisCannotObserve: feeding events into a restored
// analysis is a programming error and must fail loudly.
func TestRestoredAnalysisCannotObserve(t *testing.T) {
	prog, live, slabs := captureSlabs(t, "predator")
	restored, err := FromSnapshot(prog, live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ObserveBatch on a restored analysis did not panic")
		}
	}()
	restored.ObserveBatch(slabs[0])
}
