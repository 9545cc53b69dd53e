package simpoint

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// branchyProgram builds a program whose control transfers carve it
// into a handful of blocks: a loop header, two conditional arms, and a
// subroutine.
func branchyProgram(n int) *isa.Program {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i].Op = isa.OpAdd
	}
	insts[n/4] = isa.Inst{Op: isa.OpBeq, Target: int32(n / 2)}
	insts[n/2+n/8] = isa.Inst{Op: isa.OpJsr, Target: int32(3 * n / 4)}
	insts[3*n/4+2] = isa.Inst{Op: isa.OpRet}
	insts[n-1] = isa.Inst{Op: isa.OpBr, Target: 0}
	return &isa.Program{Name: "branchy", Insts: insts}
}

func TestBlockMap(t *testing.T) {
	prog := branchyProgram(64)
	b := BlockMap(prog)
	if b.NumBlocks() < 5 {
		t.Fatalf("expected >= 5 blocks, got %d", b.NumBlocks())
	}
	// Same-block PCs share an ID; a branch target starts a new block.
	if b.Of(0) != b.Of(1) {
		t.Error("pc 0 and 1 should share the entry block")
	}
	if b.Of(31) == b.Of(32) {
		t.Error("branch target (pc 32) should start a new block")
	}
	if b.Of(16) == b.Of(17) {
		t.Error("branch fall-through (pc 17) should start a new block")
	}
	// Every PC resolves to a valid ID.
	for pc := 0; pc < 64; pc++ {
		if id := b.Of(int32(pc)); id < 0 || int(id) >= b.NumBlocks() {
			t.Fatalf("pc %d maps to out-of-range block %d", pc, id)
		}
	}
}

// walkEvents produces a deterministic synthetic commit stream over
// prog: mostly sequential PCs with seeded jumps, exercising several
// blocks.
func walkEvents(prog *isa.Program, n int, seed int64) []sim.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]sim.Event, n)
	pc := int32(0)
	for i := range evs {
		if r.Intn(10) == 0 {
			pc = int32(r.Intn(len(prog.Insts)))
		} else if int(pc)+1 >= len(prog.Insts) {
			pc = 0
		}
		evs[i] = sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc], Target: pc + 1}
		pc++
	}
	return evs
}

// TestCollectorMatchesReference compares the collector's projected
// vectors against a direct reimplementation of the per-interval counts
// and projection, delivered in deliberately uneven slabs.
func TestCollectorMatchesReference(t *testing.T) {
	prog := branchyProgram(64)
	blocks := BlockMap(prog)
	cfg := Config{IntervalSize: 128, Dims: 8}.WithDefaults()
	const n = 128*5 + 37 // five full intervals plus a partial tail
	evs := walkEvents(prog, n, 1)

	c := NewCollector(prog, cfg)
	for lo := 0; lo < n; {
		hi := lo + 1 + (lo*7)%200
		if hi > n {
			hi = n
		}
		c.ObserveBatch(evs[lo:hi])
		lo = hi
	}
	got := c.Finish()
	if len(got) != 6 {
		t.Fatalf("got %d intervals, want 6", len(got))
	}

	for i, iv := range got {
		wantStart, wantEnd := uint64(i)*128, uint64(i+1)*128
		if wantEnd > n {
			wantEnd = n
		}
		if iv.Start != wantStart || iv.End != wantEnd || iv.Index != i {
			t.Fatalf("interval %d bounds: got [%d,%d) idx %d", i, iv.Start, iv.End, iv.Index)
		}
		// Reference projection: count blocks directly, same sign hash.
		counts := make(map[int32]uint64)
		for _, ev := range evs[iv.Start:iv.End] {
			counts[blocks.Of(ev.PC)]++
		}
		want := make([]float64, cfg.Dims)
		inv := 1 / float64(iv.End-iv.Start)
		for b, cnt := range counts {
			f := float64(cnt) * inv
			h := mix64(cfg.Seed ^ (uint64(b)+1)*0x9E3779B97F4A7C15)
			for d := range want {
				if mix64(h^uint64(d)*0xC2B2AE3D27D4EB4F)&1 == 1 {
					want[d] += f
				} else {
					want[d] -= f
				}
			}
		}
		for d := range want {
			if diff := iv.Vec[d] - want[d]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("interval %d dim %d: got %g want %g", i, d, iv.Vec[d], want[d])
			}
		}
	}
}

func TestKmeansDeterministicAndSeparating(t *testing.T) {
	// Two well-separated blobs plus a lone outlier.
	var vecs [][]float64
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		vecs = append(vecs, []float64{0 + r.Float64()*0.01, 0 + r.Float64()*0.01})
	}
	for i := 0; i < 20; i++ {
		vecs = append(vecs, []float64{5 + r.Float64()*0.01, 5 + r.Float64()*0.01})
	}
	k1, a1, _ := cluster(vecs, 8, 42, 0.9)
	k2, a2, _ := cluster(vecs, 8, 42, 0.9)
	if k1 != k2 || !reflect.DeepEqual(a1, a2) {
		t.Fatal("clustering is not deterministic for identical inputs")
	}
	if k1 < 2 {
		t.Fatalf("two separated blobs clustered into k=%d", k1)
	}
	// No blob may be split across the other blob's cluster.
	for i := 1; i < 20; i++ {
		if a1[i] != a1[0] {
			t.Fatalf("blob A split: assign[%d]=%d vs %d", i, a1[i], a1[0])
		}
		if a1[20+i] != a1[20] {
			t.Fatalf("blob B split: assign[%d]=%d vs %d", 20+i, a1[20+i], a1[20])
		}
	}
	if a1[0] == a1[20] {
		t.Fatal("both blobs assigned to one cluster")
	}
}

func TestKmeansIdenticalVectors(t *testing.T) {
	// All-identical vectors (the single-block shape) must not panic and
	// must settle on k=1.
	vecs := make([][]float64, 10)
	for i := range vecs {
		vecs[i] = []float64{1, -1, 1}
	}
	k, assign, _ := cluster(vecs, 8, 42, 0.9)
	if k != 1 {
		t.Fatalf("identical vectors clustered into k=%d", k)
	}
	for _, a := range assign {
		if a != 0 {
			t.Fatal("identical vectors not all in cluster 0")
		}
	}
}

// mkIntervals builds n synthetic intervals of the given size with the
// supplied vectors; a tail < size makes the last one partial.
func mkIntervals(size uint64, vecs [][]float64, tail uint64) []Interval {
	out := make([]Interval, len(vecs))
	var start uint64
	for i, v := range vecs {
		end := start + size
		if i == len(vecs)-1 && tail > 0 {
			end = start + tail
		}
		out[i] = Interval{Index: i, Start: start, End: end, Vec: v}
		start = end
	}
	return out
}

func TestBuildPlanGuards(t *testing.T) {
	cfg := Config{IntervalSize: 100, MinIntervals: 4}
	cases := []struct {
		name      string
		intervals []Interval
		reason    string
	}{
		{"zero intervals", nil, "zero intervals"},
		{"below minimum", mkIntervals(100, [][]float64{{1}, {1}, {1}}, 0), "below the 4-interval minimum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildPlan(tc.intervals, cfg)
			var de *DegradeError
			if !errors.As(err, &de) {
				t.Fatalf("got %v, want DegradeError", err)
			}
			if !bytes.Contains([]byte(de.Reason), []byte(tc.reason)) {
				t.Fatalf("reason %q does not mention %q", de.Reason, tc.reason)
			}
		})
	}
}

func TestBuildPlanClampsKAndCoversAll(t *testing.T) {
	// 5 intervals, MaxK far larger: k must clamp, every interval must
	// be assigned, and weights must sum to the interval count.
	vecs := [][]float64{{0, 0}, {0, 0.01}, {5, 5}, {5, 5.01}, {9, 9}}
	p, err := BuildPlan(mkIntervals(100, vecs, 0), Config{IntervalSize: 100, MaxK: 64, MinIntervals: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.K > 5 || p.K < 1 {
		t.Fatalf("k=%d outside [1,5]", p.K)
	}
	var weight uint64
	for _, c := range p.Clusters {
		weight += c.Weight
		if len(c.Members) == 0 {
			t.Fatal("empty cluster in plan")
		}
		if c.Rep < 0 || c.Rep >= len(vecs) {
			t.Fatalf("rep %d out of range", c.Rep)
		}
	}
	if weight != 5 {
		t.Fatalf("weights sum to %d, want 5", weight)
	}
	for i, j := range p.Assign {
		found := false
		for _, m := range p.Clusters[j].Members {
			if m == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("interval %d not listed in its cluster's members", i)
		}
	}
}

func TestBuildPlanPrefersFullRepresentative(t *testing.T) {
	// The partial tail sits dead-center of a cluster; a full interval
	// must still represent it.
	vecs := [][]float64{{1, 0}, {1, 0}, {1, 0}, {1, 0}, {1, 0}}
	p, err := BuildPlan(mkIntervals(100, vecs, 40), Config{IntervalSize: 100, MinIntervals: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.Clusters {
		if p.Intervals[c.Rep].Events() != 100 {
			t.Fatalf("partial interval %d chosen as representative of a cluster with full members", c.Rep)
		}
	}
	if p.TotalEvents != 440 {
		t.Fatalf("TotalEvents=%d, want 440", p.TotalEvents)
	}
}

// TestCollectTraceMatchesLive records a synthetic trace, then checks
// the parallel trace scan reproduces the live collector's intervals
// exactly, at several worker counts.
func TestCollectTraceMatchesLive(t *testing.T) {
	prog := branchyProgram(256)
	const n = 16*1024*3 + 511 // three interval-sized runs + partial tail
	evs := representableWalk(prog, n, 2)
	cfg := Config{IntervalSize: 16 * 1024, Dims: 8}

	live := NewCollector(prog, cfg)
	live.ObserveBatch(evs)
	want := live.Finish()

	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: prog.Name, Size: "test", ChunkEvents: 4096}, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}

	for _, jobs := range []int{1, 2, 7} {
		got, err := CollectTrace(context.Background(), prog, ir, cfg, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: trace scan differs from live collection", jobs)
		}
	}
}

func TestCollectTraceCancellation(t *testing.T) {
	prog := branchyProgram(64)
	evs := representableWalk(prog, 8192, 3)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: prog.Name, Size: "test", ChunkEvents: 1024}, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectTrace(ctx, prog, ir, Config{IntervalSize: 1024}, 2); err == nil {
		t.Fatal("cancelled collection succeeded")
	}
}

func TestConfigFingerprintCoversEveryKnob(t *testing.T) {
	base := Config{}.WithDefaults()
	mutants := []Config{
		{IntervalSize: base.IntervalSize * 2},
		{Dims: base.Dims + 1},
		{MaxK: base.MaxK + 1},
		{Seed: base.Seed + 1},
		{MinIntervals: base.MinIntervals + 1},
		{BICFraction: 0.5},
		{WarmupEvents: base.WarmupEvents * 2},
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for i, m := range mutants {
		fp := m.WithDefaults().Fingerprint()
		if seen[fp] {
			t.Fatalf("mutant %d collides with a prior fingerprint: %s", i, fp)
		}
		seen[fp] = true
	}
}

func TestToleranceTableComplete(t *testing.T) {
	for _, prog := range []string{"blast", "clustalw", "dnapenny", "fasta",
		"hmmcalibrate", "hmmpfam", "hmmsearch", "predator", "promlk"} {
		if _, ok := ToleranceClassB(prog); !ok {
			t.Errorf("no classB tolerance recorded for %s", prog)
		}
	}
}

// representableWalk is walkEvents with truthful targets and
// class-consistent branch outcomes, so the stream is accepted by the
// run-native trace writer.
func representableWalk(prog *isa.Program, n int, seed int64) []sim.Event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]sim.Event, n)
	pc := int32(0)
	for i := range evs {
		ev := sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc]}
		next := pc + 1
		if r.Intn(12) == 0 || int(next) >= len(prog.Insts) {
			next = int32(r.Intn(len(prog.Insts)))
		}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassCondBranch:
			ev.Taken = r.Intn(2) == 0
		case isa.ClassUncondBranch:
			ev.Taken = true
		}
		ev.Target = next
		evs[i] = ev
		pc = next
	}
	return evs
}
