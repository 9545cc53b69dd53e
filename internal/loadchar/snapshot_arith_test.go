package loadchar

import (
	"bytes"
	"reflect"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// replaySlabs feeds a fresh analysis the given slabs and returns it.
func replaySlabs(prog *isa.Program, slabs [][]sim.Event) *Analysis {
	a := New(prog)
	for _, s := range slabs {
		a.ObserveBatch(s)
	}
	return a
}

// renderSnap renders the profile a snapshot restores to, the same
// comparison surface the artifact store trusts.
func renderSnap(t *testing.T, prog *isa.Program, s *Snapshot) string {
	t.Helper()
	a, err := FromSnapshot(prog, s)
	if err != nil {
		t.Fatal(err)
	}
	return RenderProfile(prog.Name, "test", a, 10)
}

// TestSnapshotSubMergeRoundTrip pins the arithmetic the sampled
// characterization path depends on: (full − prefix) merged back onto
// the prefix reproduces the full snapshot's reports exactly. The
// prefix analysis is a genuine prefix — same events, same order — so
// Sub must succeed and the round trip must be byte-identical.
func TestSnapshotSubMergeRoundTrip(t *testing.T) {
	prog, live, slabs := captureSlabs(t, "predator")
	want := RenderProfile(prog.Name, "test", live, 10)
	k := len(slabs) / 2

	full := replaySlabs(prog, slabs).Snapshot()
	prefix := replaySlabs(prog, slabs[:k]).Snapshot()

	delta := replaySlabs(prog, slabs).Snapshot()
	if err := delta.Sub(prefix); err != nil {
		t.Fatalf("Sub: %v", err)
	}
	merged := replaySlabs(prog, slabs[:k]).Snapshot()
	if err := merged.Merge(delta); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if got := renderSnap(t, prog, merged); got != want {
		t.Errorf("prefix+delta differs from full:\n--- merged ---\n%s\n--- full ---\n%s", got, want)
	}
	if got := renderSnap(t, prog, full); got != want {
		t.Errorf("full snapshot differs from live render")
	}
}

// TestSnapshotSubRejectsNonPrefix: subtracting a larger run from a
// smaller one must error, not wrap around.
func TestSnapshotSubRejectsNonPrefix(t *testing.T) {
	prog, _, slabs := captureSlabs(t, "predator")
	full := replaySlabs(prog, slabs).Snapshot()
	prefix := replaySlabs(prog, slabs[:len(slabs)/2]).Snapshot()
	if err := prefix.Sub(full); err == nil {
		t.Fatal("subtracting a superset succeeded")
	}
}

// TestDeltaSinceMatchesSub pins the sampled replay's one-copy
// difference to Sub: a prefix snapshot turned in place into the counts
// observed after it equals the final snapshot minus the prefix, field
// for field and in its binary body, at several cut points; a snapshot
// that is not a prefix is refused and left unchanged.
func TestDeltaSinceMatchesSub(t *testing.T) {
	for _, name := range []string{"predator", "hmmsearch", "clustalw"} {
		prog, _, slabs := captureSlabs(t, name)
		for _, k := range []int{0, 1, len(slabs) / 2, len(slabs)} {
			a := replaySlabs(prog, slabs[:k])
			pre := a.Snapshot()
			for _, s := range slabs[k:] {
				a.ObserveBatch(s)
			}
			want := a.Snapshot()
			if err := want.Sub(pre); err != nil {
				t.Fatal(err)
			}
			if err := a.DeltaSince(pre); err != nil {
				t.Fatalf("%s cut %d: DeltaSince: %v", name, k, err)
			}
			if !reflect.DeepEqual(pre, want) || !bytes.Equal(pre.Append(nil), want.Append(nil)) {
				t.Errorf("%s cut %d: DeltaSince differs from Sub", name, k)
			}
		}
		small := replaySlabs(prog, slabs[:len(slabs)/2])
		full := replaySlabs(prog, slabs).Snapshot()
		keep := replaySlabs(prog, slabs).Snapshot()
		if err := small.DeltaSince(full); err == nil {
			t.Errorf("%s: DeltaSince of a superset succeeded", name)
		}
		if !reflect.DeepEqual(full, keep) {
			t.Errorf("%s: refused DeltaSince changed its argument", name)
		}
	}
}

// TestSnapshotScaleMatchesRepeatedMerge: Scale(w) must equal merging w
// copies — the definition of weighted extrapolation.
func TestSnapshotScaleMatchesRepeatedMerge(t *testing.T) {
	prog, _, slabs := captureSlabs(t, "predator")
	scaled := replaySlabs(prog, slabs).Snapshot()
	scaled.Scale(3)

	tripled := replaySlabs(prog, slabs).Snapshot()
	for i := 0; i < 2; i++ {
		if err := tripled.Merge(replaySlabs(prog, slabs).Snapshot()); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}
	if got, want := renderSnap(t, prog, scaled), renderSnap(t, prog, tripled); got != want {
		t.Errorf("Scale(3) differs from 3x merge:\n--- scaled ---\n%s\n--- merged ---\n%s", got, want)
	}
	// Rates are ratios of counts, so a uniformly scaled snapshot
	// renders the same percentages as the original.
	one := replaySlabs(prog, slabs).Snapshot()
	a1, err := FromSnapshot(prog, one)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := FromSnapshot(prog, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if m1, m3 := a1.Mix(), a3.Mix(); m1.LoadPct != m3.LoadPct || m1.BranchPct != m3.BranchPct {
		t.Errorf("scaling changed rates: %+v vs %+v", m1, m3)
	}
	if c1, c3 := a1.CacheReport(), a3.CacheReport(); c1 != c3 {
		t.Errorf("scaling changed cache report: %+v vs %+v", c1, c3)
	}
}
