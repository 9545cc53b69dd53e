package trace

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// writeMemTestTrace is writeTestTraceVersion with a program that mixes
// memory-class and other instructions, so the Addrs column's
// classification logic is exercised: addresses attach to loads and
// stores, while the test generator also stamps addresses onto
// non-memory events (hostile relative to the simulator, legal per the
// format) which the column decoder must consume and drop.
func writeMemTestTrace(t *testing.T, n, chunk, version int) ([]byte, []sim.Event, *isa.Program) {
	t.Helper()
	prog := testProgram(1 << 12)
	r := rand.New(rand.NewSource(int64(n) + 77))
	for pc := range prog.Insts {
		switch r.Intn(5) {
		case 0:
			prog.Insts[pc].Op = isa.OpLdq
		case 1:
			prog.Insts[pc].Op = isa.OpStq
		case 2:
			prog.Insts[pc].Op = isa.OpBeq
		}
	}
	evs := make([]sim.Event, n)
	pc := int32(0)
	for i := range evs {
		if r.Intn(16) == 0 {
			pc = int32(r.Intn(len(prog.Insts)))
		} else if int(pc)+1 < len(prog.Insts) {
			pc++
		}
		evs[i] = sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc], Target: pc + 1}
		if r.Intn(3) == 0 {
			evs[i].Addr = uint64(1 + r.Intn(1<<20))
		}
		if r.Intn(5) == 0 {
			evs[i].Taken = true
			evs[i].Target = int32(r.Intn(len(prog.Insts)))
		}
	}
	var buf bytes.Buffer
	tw := newWriterVersion(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, version)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatalf("close writer: %v", err)
	}
	return buf.Bytes(), evs, prog
}

// checkColumns drains a column source and verifies every column against
// the original event stream, handling both the legacy and the
// dictionary-backed chunk shapes.
func checkColumns(t *testing.T, src runstream.Source, evs []sim.Event, prog *isa.Program) {
	t.Helper()
	defer src.Close()
	i := 0
	for {
		ch, release, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("columns: %v", err)
		}
		if want := evs[0].Seq + uint64(i); ch.Base != want {
			t.Fatalf("chunk base %d, want %d", ch.Base, want)
		}
		if ch.Dict != nil {
			i = checkChunkV4(t, ch, evs, i, prog)
		} else {
			i = checkChunkLegacy(t, ch, evs, i, prog)
		}
		release()
	}
	if i != len(evs) {
		t.Fatalf("columns covered %d events, want %d", i, len(evs))
	}
}

// checkChunkLegacy verifies one legacy (v2/v3) chunk starting at event
// i and returns the index past it.
func checkChunkLegacy(t *testing.T, ch *runstream.Chunk, evs []sim.Event, i int, prog *isa.Program) int {
	t.Helper()
	var addrs []uint64
	ci := int32(0)
	for _, run := range ch.Runs {
		for k := int32(0); k < run.N; k++ {
			ev := evs[i]
			if run.PC+k != ev.PC {
				t.Fatalf("event %d: pc %d, want %d", i, run.PC+k, ev.PC)
			}
			if ch.TakenAt(ci) != ev.Taken {
				t.Fatalf("event %d: taken %v, want %v", i, ch.TakenAt(ci), ev.Taken)
			}
			if ch.PresentAt(ci) != (ev.Addr != 0) {
				t.Fatalf("event %d: present %v, want %v", i, ch.PresentAt(ci), ev.Addr != 0)
			}
			cls := isa.ClassOf(prog.Insts[ev.PC].Op)
			if (cls == isa.ClassLoad || cls == isa.ClassStore) && ev.Addr != 0 {
				addrs = append(addrs, ev.Addr)
			}
			i++
			ci++
		}
	}
	if int(ci) != ch.N {
		t.Fatalf("chunk runs cover %d events, header says %d", ci, ch.N)
	}
	if len(addrs) != len(ch.Addrs) {
		t.Fatalf("chunk at %d: %d addrs, want %d", ch.Base, len(ch.Addrs), len(addrs))
	}
	for k := range addrs {
		if ch.Addrs[k] != addrs[k] {
			t.Fatalf("chunk at %d: addr %d = %#x, want %#x", ch.Base, k, ch.Addrs[k], addrs[k])
		}
	}
	return i
}

// checkChunkV4 verifies one dictionary-backed chunk starting at event
// i and returns the index past it: tokens expand against the shared
// dictionary, BrTaken carries one bit per conditional branch, and
// Addrs one entry per memory event, zero addresses included.
func checkChunkV4(t *testing.T, ch *runstream.Chunk, evs []sim.Event, i int, prog *isa.Program) int {
	t.Helper()
	n, br, mem := 0, 0, 0
	for _, tok := range ch.Tokens {
		run := ch.Dict.Runs[tok.ID]
		for rep := int32(0); rep < tok.Rep; rep++ {
			for k := int32(0); k < run.N; k++ {
				ev := evs[i]
				if run.PC+k != ev.PC {
					t.Fatalf("event %d: pc %d, want %d", i, run.PC+k, ev.PC)
				}
				switch isa.ClassOf(prog.Insts[ev.PC].Op) {
				case isa.ClassCondBranch:
					if taken := ch.BrTaken[br>>3]&(1<<(br&7)) != 0; taken != ev.Taken {
						t.Fatalf("event %d: taken %v, want %v", i, taken, ev.Taken)
					}
					br++
				case isa.ClassUncondBranch:
					if !ev.Taken {
						t.Fatalf("event %d: unconditional branch recorded not-taken", i)
					}
				case isa.ClassLoad, isa.ClassStore:
					if ch.Addrs[mem] != ev.Addr {
						t.Fatalf("event %d: addr %#x, want %#x", i, ch.Addrs[mem], ev.Addr)
					}
					mem++
				}
				i++
				n++
			}
		}
	}
	if n != ch.N {
		t.Fatalf("chunk tokens cover %d events, header says %d", n, ch.N)
	}
	if mem != len(ch.Addrs) {
		t.Fatalf("chunk at %d: %d addrs, want %d", ch.Base, len(ch.Addrs), mem)
	}
	return i
}

func TestColumnsMatchEvents(t *testing.T) {
	for _, version := range []int{2, 3} {
		for _, workers := range []int{1, 3} {
			data, evs, prog := writeMemTestTrace(t, 5000, 256, version)
			ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("v%d: %v", version, err)
			}
			src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers)
			checkColumns(t, src, evs, prog)
		}
	}
	// v4: dictionary-backed chunks, at several worker counts including
	// more workers than the claim scheduler's ring would otherwise see.
	for _, workers := range []int{1, 3, 8} {
		data, evs, prog := writeTestTraceVersion(t, 5000, 256, 4)
		ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("v4: %v", err)
		}
		src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers)
		checkColumns(t, src, evs, prog)
	}
}

// TestColumnsCommitOrderUnderContention drains many tiny chunks through
// more workers than CPUs, many times over. A claimant that is
// descheduled for a window's worth of chunks must still deliver its own
// chunk in its turn, not lose its slot to the claimant one window later.
func TestColumnsCommitOrderUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	data, _, prog := writeTestTraceVersion(t, 20000, 16, 4)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 100; iter++ {
		src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 4)
		var want uint64
		for {
			ch, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ch.Base != want {
				src.Close()
				t.Fatalf("iteration %d: chunk base %d delivered, want %d", iter, ch.Base, want)
			}
			want += uint64(ch.N)
			release()
		}
		src.Close()
	}
}

// TestColumnsHostilePresent feeds a v3 stream where the generator
// stamps addresses on non-memory events (hostile relative to the
// simulator, legal per the sparse format) and checks the decoder
// consumes the delta chain without keeping any.
func TestColumnsHostilePresent(t *testing.T) {
	data, evs, prog := writeMemTestTrace(t, 3000, 256, 3)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2)
	checkColumns(t, src, evs, prog)
}

func TestColumnsSubrangeAndCancel(t *testing.T) {
	data, evs, prog := writeTestTraceVersion(t, 5000, 256, FormatVersion)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	nc := ir.Chunks()
	if nc < 4 {
		t.Fatalf("want ≥4 chunks, got %d", nc)
	}
	lo, hi := 1, nc-1
	src := ir.Columns(context.Background(), prog, lo, hi, 2)
	checkColumns(t, src, evs[ir.Base(lo):ir.Base(hi)], prog)

	// Close before draining must not deadlock or leak workers.
	src = ir.Columns(context.Background(), prog, 0, nc, 4)
	src.Close()

	// A cancelled context surfaces as an error from Next.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src = ir.Columns(ctx, prog, 0, nc, 2)
	defer src.Close()
	for {
		_, release, err := src.Next()
		if err == io.EOF {
			t.Fatal("cancelled source drained to EOF")
		}
		if err != nil {
			break
		}
		release()
	}
}

// TestColumnsRejectsV1 pins the typed failure on index-less traces.
func TestColumnsRejectsV1(t *testing.T) {
	err := decodeChunkColumns(nil, 1, nil, &runstream.Chunk{})
	if err == nil {
		t.Fatal("v1 column decode succeeded")
	}
}

// TestColumnsCorruptionDetected flips bytes inside chunk frames and
// requires every mutation to either fail or decode to the same columns
// as the pristine trace (CRC collisions aside, a flip must never be
// silently absorbed into different data).
func TestColumnsCorruptionDetected(t *testing.T) {
	data, evs, prog := writeTestTraceVersion(t, 2000, 256, FormatVersion)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	start := ir.chunks[0].offset
	end := ir.dataEnd
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		mut := bytes.Clone(data)
		pos := start + int64(r.Intn(int(end-start)))
		mut[pos] ^= 1 << r.Intn(8)
		mir, err := NewIndexedReader(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue // footer/index validation caught it
		}
		src := mir.Columns(context.Background(), prog, 0, mir.Chunks(), 1)
		failed := false
		func() {
			defer src.Close()
			for {
				_, release, err := src.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					failed = true
					return
				}
				release()
			}
		}()
		if !failed {
			// Rarely the flip lands in flate padding or round-trips; make
			// sure the decoded columns still match the original events.
			src = mir.Columns(context.Background(), prog, 0, mir.Chunks(), 1)
			checkColumns(t, src, evs, prog)
		}
	}
}
