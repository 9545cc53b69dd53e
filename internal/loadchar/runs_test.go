package loadchar

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// recordTrace writes captured slabs into an in-memory trace and opens
// it indexed, mirroring the runner's record-then-replay path.
func recordTrace(t *testing.T, name string, prog *isa.Program, slabs [][]sim.Event, chunkEvents int) *trace.IndexedReader {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: name, Size: "test", ChunkEvents: chunkEvents}, prog)
	for _, evs := range slabs {
		tw.ObserveBatch(evs)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close trace writer: %v", err)
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("open indexed trace: %v", err)
	}
	return ir
}

// TestAnalyzeRunsMatchesLive pins the block-characterized replay's core
// invariant: the run-table engine plus sharded predictor/memory lanes
// over a recorded trace produce a profile byte-identical to the live
// analysis and to the per-event oracle — compared through both the
// full Snapshot (every counter) and the rendered profile — at one
// worker (fused) and at enough workers to shard both lanes.
func TestAnalyzeRunsMatchesLive(t *testing.T) {
	for _, name := range []string{"hmmsearch", "predator", "promlk"} {
		prog, live, slabs := captureSlabs(t, name)
		ref := oracleOf(prog, slabs)
		want := ref.Snapshot()
		wantProf := RenderProfile(name, "test", ref, 10)
		if !reflect.DeepEqual(live.Snapshot(), want) {
			t.Errorf("%s: live snapshot differs from the oracle", name)
		}
		ir := recordTrace(t, name, prog, slabs, 1<<12)

		for _, workers := range []int{1, 4, 8} {
			src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2)
			a, err := AnalyzeRuns(context.Background(), prog, src, workers)
			src.Close()
			if err != nil {
				t.Fatalf("%s workers=%d: AnalyzeRuns: %v", name, workers, err)
			}
			if got := a.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: snapshot differs from the oracle", name, workers)
			}
			if got := RenderProfile(name, "test", a, 10); got != wantProf {
				t.Errorf("%s workers=%d: profile differs from the oracle:\n--- oracle ---\n%s\n--- runs ---\n%s", name, workers, wantProf, got)
			}
			if workers == 1 {
				if a.Exec.Parallel() || a.Exec.SerialReason != SerialReasonRequested {
					t.Errorf("%s: serial run tagged %+v", name, a.Exec)
				}
			} else {
				if !a.Exec.Parallel() || a.Exec.SerialReason != "" {
					t.Errorf("%s workers=%d: parallel run tagged %+v", name, workers, a.Exec)
				}
			}
		}
	}
}

// TestAnalyzeRunsCancel checks a canceled context aborts both the fused
// and the sharded orchestration without deadlocking.
func TestAnalyzeRunsCancel(t *testing.T) {
	prog, _, slabs := captureSlabs(t, "hmmsearch")
	ir := recordTrace(t, "hmmsearch", prog, slabs, 1<<12)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 1)
		_, err := AnalyzeRuns(ctx, prog, src, workers)
		src.Close()
		if err == nil {
			t.Fatalf("workers=%d: AnalyzeRuns with canceled context succeeded", workers)
		}
	}
}

// TestSnapshotMergePermutationInvariant is the shard-merge property
// test: folding shard snapshots in any order yields a byte-identical
// merged snapshot, so the parallel lanes' merge step cannot introduce
// order dependence. Shards here are independent analyses over disjoint
// slab ranges — the same shape the sharded replay merges.
func TestSnapshotMergePermutationInvariant(t *testing.T) {
	prog, _, slabs := captureSlabs(t, "predator")
	const parts = 5
	snaps := make([]*Snapshot, parts)
	for i := range snaps {
		a := New(prog)
		lo, hi := i*len(slabs)/parts, (i+1)*len(slabs)/parts
		for _, evs := range slabs[lo:hi] {
			a.ObserveBatch(evs)
		}
		snaps[i] = a.Snapshot()
	}

	merge := func(order []int) *Snapshot {
		base := New(prog).Snapshot() // empty
		for _, i := range order {
			if err := base.Merge(snaps[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return base
	}

	want := merge([]int{0, 1, 2, 3, 4})
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		order := r.Perm(parts)
		if got := merge(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge order %v produced a different snapshot", order)
		}
	}
}
