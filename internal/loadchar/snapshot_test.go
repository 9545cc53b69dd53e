package loadchar

import (
	"bytes"
	"encoding/binary"
	"reflect"
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
			decoded, err := DecodeSnapshot(body, len(prog.Insts))
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
// Append writes for the program's length. A body cut short or with a
// byte after it, a table whose PCs descend or repeat, a count its
// bytes cannot back, and a per-load entry outside the program or of
// zero value are each rejected.
func TestDecodeSnapshotRejects(t *testing.T) {
	const nInsts = 4
	s := &Snapshot{LoadCounts: []uint64{0, 10, 20, 0}}
	body := s.Append(nil)
	if _, err := DecodeSnapshot(body, nInsts); err != nil {
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
	zeroValue := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(zeroValue[table+4+4:], 0)
	for name, bad := range map[string][]byte{
		"truncated":          body[:len(body)-1],
		"trailing byte":      append(append([]byte(nil), body...), 0),
		"descending PCs":     patch(table+4, 3),
		"repeated PC":        patch(table+4+12, 1),
		"count too large":    patch(table, 1<<20),
		"PC outside program": patch(table+4+12, nInsts),
		"zero entry":         zeroValue,
		"empty":              {},
	} {
		if _, err := DecodeSnapshot(bad, nInsts); err == nil {
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

// TestSnapshotsAreCopies: the snapshot Snapshot returns shares no
// storage with the analysis, so wiping every table of it leaves the
// analysis's render as it was. FromSnapshot adopts the snapshot it is
// given instead of copying it: the restored analysis reports from
// those very tables, so a count written into one shows in its report.
func TestSnapshotsAreCopies(t *testing.T) {
	prog, live, _ := captureSlabs(t, "hmmsearch")
	want := RenderProfile("hmmsearch", "test", live, 10)
	wipe(live.Snapshot())
	if got := RenderProfile("hmmsearch", "test", live, 10); got != want {
		t.Error("wiping a returned snapshot changed the live analysis")
	}
	given := live.Snapshot()
	restored, err := FromSnapshot(prog, given)
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderProfile("hmmsearch", "test", restored, 10); got != want {
		t.Error("the restored analysis renders differently from the live one")
	}
	hot, cold := restored.HotLoads(1)[0].PC, int32(-1)
	for pc, c := range given.LoadCounts {
		if c > 0 && int32(pc) != hot {
			cold = int32(pc)
		}
	}
	if cold < 0 {
		t.Fatal("hmmsearch executes a single static load")
	}
	given.LoadCounts[cold] = 1 << 40
	if top := restored.HotLoads(1)[0].PC; top != cold {
		t.Errorf("hottest load is pc %d after the given snapshot made pc %d hottest: FromSnapshot copied it", top, cold)
	}
}

// wipe zeroes every count s holds in place, inner tables included.
func wipe(s *Snapshot) {
	for _, p := range s.words() {
		*p = 0
	}
	for _, t := range s.perLoad() {
		clear(t)
	}
	clear(s.Branches)
	for _, m := range []map[int32]map[int32]uint64{s.FedBranch, s.AfterBranch} {
		for _, inner := range m {
			clear(inner)
		}
	}
}

// TestSnapshotArithRejectsOtherProgram: Merge and Sub of snapshots of
// two programs fail and leave the receiver as it was.
func TestSnapshotArithRejectsOtherProgram(t *testing.T) {
	progA, a, _ := captureSlabs(t, "predator")
	progB, b, _ := captureSlabs(t, "promlk")
	if len(progA.Insts) == len(progB.Insts) {
		t.Fatal("the two programs have equal lengths")
	}
	for name, op := range map[string]func(s, o *Snapshot) error{
		"Merge": (*Snapshot).Merge,
		"Sub":   (*Snapshot).Sub,
	} {
		s := a.Snapshot()
		if err := op(s, b.Snapshot()); err == nil {
			t.Errorf("%s of another program's snapshot succeeded", name)
		}
		if !reflect.DeepEqual(s, a.Snapshot()) {
			t.Errorf("failed %s changed the receiver", name)
		}
	}
}

// BenchmarkProfileReports times the report work of one characterize
// request on a restored test-size hmmsearch profile: the service's
// summary fields, then its ranking (hot loads and top-80 coverage),
// computed once and shared by the JSON fields and the rendered profile.
func BenchmarkProfileReports(b *testing.B) {
	live := analyze(b, "hmmsearch")
	a, err := FromSnapshot(live.prog, live.Snapshot())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		a.Mix()
		a.CacheReport()
		a.Sequences()
		a.StaticLoadCount()
		RenderRanked("hmmsearch", "test", a, a.Ranking(6))
	}
}
