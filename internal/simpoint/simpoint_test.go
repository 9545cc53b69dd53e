package simpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
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

// referenceIntervals is the per-event reference every collection path
// must reproduce: each interval's projection summed one PC at a time
// from the collector's signs, then L1-normalized. The sums are exact
// integers, so the vectors match the collector's bit for bit.
func referenceIntervals(cfg Config, pcs []int32) []Interval {
	cfg = cfg.WithDefaults()
	size := int(cfg.IntervalSize)
	var out []Interval
	for start := 0; start < len(pcs); start += size {
		end := min(start+size, len(pcs))
		var sum [DefaultDims]int64
		for _, pc := range pcs[start:end] {
			for d := range sum {
				sum[d] += int64(sign(int(pc), d))
			}
		}
		vec := make([]float64, DefaultDims)
		for d := range vec {
			vec[d] = float64(sum[d]) / float64(end-start)
		}
		out = append(out, Interval{Index: len(out), Start: uint64(start), End: uint64(end), Vec: vec})
	}
	return out
}

// TestCollectorMatchesReference feeds the collector a PC stream as
// deliberately uneven run pieces, at least one straddling an interval
// edge, plus a tight loop through the bulk repeat path across several
// edges, and compares every interval with the per-event reference.
func TestCollectorMatchesReference(t *testing.T) {
	prog := branchyProgram(64)
	cfg := Config{IntervalSize: 128}
	const n = 128*8 + 37 // eight full intervals plus a partial tail
	var pcs []int32
	for _, ev := range walkEvents(prog, 300, 1) {
		pcs = append(pcs, ev.PC)
	}
	loopAt := len(pcs)
	const loopPC, loopN, loopRep = 10, 5, 100
	for i := 0; i < loopRep; i++ {
		for pc := int32(loopPC); pc < loopPC+loopN; pc++ {
			pcs = append(pcs, pc)
		}
	}
	for _, ev := range walkEvents(prog, n-len(pcs), 2) {
		pcs = append(pcs, ev.PC)
	}

	c := newCollectorAt(newSignTable(len(prog.Insts)), cfg, 0)
	straddled := false
	for seq := 0; seq < n; {
		if seq == loopAt {
			c.observe(loopPC, loopN, loopRep)
			seq += loopN * loopRep
			continue
		}
		end := seq + 1
		for end < n && end != loopAt && pcs[end] == pcs[end-1]+1 {
			end++
		}
		for end > seq {
			take := min(end-seq, 1+(seq*7)%13)
			if seq/128 != (seq+take-1)/128 {
				straddled = true
			}
			c.observe(pcs[seq], int32(take), 1)
			seq += take
		}
	}
	if !straddled {
		t.Fatal("no run piece straddled an interval edge")
	}
	got := c.finish()
	if len(got) != 9 || got[8].End != n {
		t.Fatalf("got %d intervals, want 9 ending at %d", len(got), n)
	}
	if want := referenceIntervals(cfg, pcs); !reflect.DeepEqual(got, want) {
		t.Fatalf("collector intervals differ from the per-event reference:\ngot  %v\nwant %v", got, want)
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
	cfg := Config{IntervalSize: 100}
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
	// 5 intervals, DefaultMaxK larger: k must clamp, every interval
	// must be assigned, and weights must sum to the interval count.
	vecs := [][]float64{{0, 0}, {0, 0.01}, {5, 5}, {5, 5.01}, {9, 9}}
	p, err := BuildPlan(mkIntervals(100, vecs, 0), Config{IntervalSize: 100})
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
	p, err := BuildPlan(mkIntervals(100, vecs, 40), Config{IntervalSize: 100})
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
// the parallel trace scan reproduces the per-event reference
// intervals exactly, at several worker counts.
func TestCollectTraceMatchesLive(t *testing.T) {
	prog := branchyProgram(256)
	const n = 16*1024*3 + 511 // three interval-sized runs + partial tail
	evs := representableWalk(prog, n, 2)
	cfg := Config{IntervalSize: 16 * 1024}
	pcs := make([]int32, n)
	for i := range evs {
		pcs[i] = evs[i].PC
	}
	want := referenceIntervals(cfg, pcs)

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
			t.Fatalf("jobs=%d: trace scan differs from the per-event reference", jobs)
		}
	}
}

// pcStream records the PC of every event an interpreter commits.
type pcStream []int32

func (s *pcStream) ObserveBatch(evs []sim.Event) {
	for i := range evs {
		*s = append(*s, evs[i].PC)
	}
}

// TestCollectTraceMatchesInterpreter records dnapenny's test-size
// trace, compiled code with calls, returns and nested loops, and
// checks the trace scan against the per-event reference over the
// interpreter's own PC stream. The interval size does not divide the
// chunk size, so worker ranges start and end inside chunks.
func TestCollectTraceMatchesInterpreter(t *testing.T) {
	p, err := bio.ByName("dnapenny")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	var pcs pcStream
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: p.Name, Size: "test"}, prog)
	_, err = p.Run(context.Background(), prog, bio.SizeTest, func(m *sim.Machine) {
		m.AddBatchObserver(&pcs)
		m.SetChunkSink(trace.ChunkEvents, tw.WriteChunk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{IntervalSize: 10000}
	want := referenceIntervals(cfg, pcs)
	if len(want) < 8 {
		t.Fatalf("%d events make %d intervals, want at least 8", len(pcs), len(want))
	}
	for _, jobs := range []int{1, 2, 7} {
		got, err := CollectTrace(context.Background(), prog, ir, cfg, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("jobs=%d: trace scan differs from the per-event reference", jobs)
		}
	}
}

// FuzzCollectorMatchesReference feeds the collector a random PC walk
// over a 64-instruction program and checks it against the per-event
// reference. The first two bytes pick the interval size (1 to 512).
// Each token then takes four bytes: the run's first PC, its length, a
// repeat count (bit 7 multiplies it by 97, so a run can repeat across
// several edges) and a split width; width 0 feeds the token whole,
// otherwise each repetition arrives in pieces of that many events.
func FuzzCollectorMatchesReference(f *testing.F) {
	f.Add([]byte{128, 0, 0, 63, 0, 0})
	f.Add([]byte{7, 0, 3, 10, 2, 0, 40, 20, 1, 3, 0, 63, 0x85, 0})
	f.Add([]byte{0, 1, 10, 5, 0xff, 0, 10, 5, 0xff, 2, 60, 3, 1, 1})
	const progLen = 64
	signs := newSignTable(progLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{IntervalSize: 1 + uint64(binary.LittleEndian.Uint16(data)%512)}
		c := newCollectorAt(signs, cfg, 0)
		var pcs []int32
		for rest := data[2:]; len(rest) >= 4 && len(pcs) < 1<<16; rest = rest[4:] {
			pc := int32(rest[0] % progLen)
			n := 1 + int32(rest[1])%(progLen-pc)
			rep := 1 + int64(rest[2]&0x7f)
			if rest[2]&0x80 != 0 {
				rep *= 97
			}
			for range rep {
				for p := pc; p < pc+n; p++ {
					pcs = append(pcs, p)
				}
			}
			width := int32(rest[3])
			if width == 0 {
				c.observe(pc, n, rep)
				continue
			}
			for range rep {
				for p := pc; p < pc+n; p += width {
					c.observe(p, min(width, pc+n-p), 1)
				}
			}
		}
		if got, want := c.finish(), referenceIntervals(cfg, pcs); !reflect.DeepEqual(got, want) {
			t.Fatalf("interval size %d, %d events: collector differs from the per-event reference:\ngot  %v\nwant %v",
				cfg.IntervalSize, len(pcs), got, want)
		}
	})
}

// TestCollectWorkersClamp: the scan width is the request bounded by
// the schedulable CPUs and the interval count, and never below one.
func TestCollectWorkersClamp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct{ jobs, m, want int }{{4, 100, 1}, {1, 100, 1}, {0, 100, 1}, {4, 0, 1}} {
		if got := collectWorkers(c.jobs, c.m); got != c.want {
			t.Errorf("GOMAXPROCS 1: collectWorkers(%d, %d) = %d, want %d", c.jobs, c.m, got, c.want)
		}
	}
	runtime.GOMAXPROCS(4)
	for _, c := range []struct{ jobs, m, want int }{{8, 100, 4}, {3, 100, 3}, {8, 2, 2}} {
		if got := collectWorkers(c.jobs, c.m); got != c.want {
			t.Errorf("GOMAXPROCS 4: collectWorkers(%d, %d) = %d, want %d", c.jobs, c.m, got, c.want)
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
