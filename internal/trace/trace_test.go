package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// testProgram builds a synthetic program large enough to bind the
// random PCs used by the stream tests. Every instruction is class
// Other; the fuzz reference paths use it where classes don't matter.
func testProgram(n int) *isa.Program {
	insts := make([]isa.Inst, n)
	return &isa.Program{Name: "synthetic", Insts: insts}
}

// testProgramMixed builds a program with a deterministic mix of
// instruction classes keyed by PC — loads, stores, conditional and
// unconditional branches among the ALU filler — so recorded streams
// exercise the v4 writer's class-split columns.
func testProgramMixed(n int) *isa.Program {
	insts := make([]isa.Inst, n)
	for pc := range insts {
		switch {
		case pc%7 == 1:
			insts[pc].Op = isa.OpLdq
		case pc%7 == 5:
			insts[pc].Op = isa.OpStq
		case pc%7 == 3:
			insts[pc].Op = isa.OpBeq
		case pc%21 == 6:
			insts[pc].Op = isa.OpBr
		default:
			insts[pc].Op = isa.OpAdd
		}
	}
	return &isa.Program{Name: "synthetic", Insts: insts}
}

// writeTestTrace records n synthetic events through the BatchObserver
// path with a small chunk size so multiple chunks are exercised, and
// returns the encoded bytes plus the events. The generated stream is
// run-representable: targets name the next committed PC and the taken
// and address fields respect each PC's class.
func writeTestTrace(t *testing.T, n, chunk int) ([]byte, []sim.Event, *isa.Program) {
	t.Helper()
	prog := testProgramMixed(1 << 12)
	evs := testEventStream(n, prog)
	var buf bytes.Buffer
	r := rand.New(rand.NewSource(int64(n) + 1))
	tw := NewWriter(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, prog)
	// Deliver in uneven slabs to exercise partial-chunk accumulation.
	for lo := 0; lo < n; {
		hi := lo + 1 + r.Intn(300)
		if hi > n {
			hi = n
		}
		tw.ObserveBatch(evs[lo:hi])
		lo = hi
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close writer: %v", err)
	}
	if got := tw.Events(); got != uint64(n) {
		t.Fatalf("writer accepted %d events, want %d", got, n)
	}
	return buf.Bytes(), evs, prog
}

// openTestTrace opens data through the indexed reader, failing the
// test on error.
func openTestTrace(t *testing.T, data []byte) *IndexedReader {
	t.Helper()
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	return ir
}

// testEventStream walks prog pseudo-randomly — mostly fallthrough with
// occasional jumps, loads and stores carrying addresses (sometimes
// zero), conditional branches with mixed outcomes — producing a
// run-representable commit stream.
func testEventStream(n int, prog *isa.Program) []sim.Event {
	r := rand.New(rand.NewSource(int64(n)))
	evs := make([]sim.Event, n)
	pc := int32(0)
	for i := range evs {
		ev := sim.Event{Seq: uint64(i), PC: pc, Inst: &prog.Insts[pc]}
		switch isa.ClassOf(prog.Insts[pc].Op) {
		case isa.ClassLoad, isa.ClassStore:
			if r.Intn(8) != 0 {
				ev.Addr = uint64(1 + r.Intn(1<<20))
			}
		case isa.ClassCondBranch:
			ev.Taken = r.Intn(2) == 0
		case isa.ClassUncondBranch:
			ev.Taken = true
		}
		next := pc + 1
		if r.Intn(16) == 0 || int(next) >= len(prog.Insts) {
			next = int32(r.Intn(len(prog.Insts)))
		}
		ev.Target = next
		evs[i] = ev
		pc = next
	}
	return evs
}

func drain(t *testing.T, src *Source) []sim.Event {
	t.Helper()
	var all []sim.Event
	for {
		evs, release, err := src.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatalf("source: %v", err)
		}
		all = append(all, evs...)
		release()
	}
}

func checkEvents(t *testing.T, got, want []sim.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 5000} {
		data, evs, prog := writeTestTrace(t, n, 256)
		ir := openTestTrace(t, data)
		if ir.Meta().Program != "synthetic" || ir.Meta().Size != "test" {
			t.Fatalf("n=%d: meta %+v", n, ir.Meta())
		}
		src := ir.Range(prog, 0, ir.Chunks())
		got := drain(t, src)
		src.Close()
		checkEvents(t, got, evs)
		if ir.TotalEvents() != uint64(n) {
			t.Fatalf("n=%d: TotalEvents=%d", n, ir.TotalEvents())
		}
	}
}

// TestParallelStreamRoundTrip drains the worker-pool column source at
// several widths and checks every column against the recorded events.
func TestParallelStreamRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		data, evs, prog := writeTestTrace(t, 10000, 128)
		ir := openTestTrace(t, data)
		checkColumns(t, ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers), evs, prog)
	}
}

func TestParallelSourceEarlyClose(t *testing.T) {
	data, _, prog := writeTestTrace(t, 20000, 64)
	ir := openTestTrace(t, data)
	src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 4)
	if _, _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	src.Close() // must not deadlock with most chunks undelivered
}

// TestReplayCancel cancels a column replay after its first chunk: the
// source must stop with an error instead of draining to EOF.
func TestReplayCancel(t *testing.T) {
	data, _, prog := writeTestTrace(t, 3000, 64)
	ir := openTestTrace(t, data)
	ctx, cancel := context.WithCancel(context.Background())
	src := ir.Columns(ctx, prog, 0, ir.Chunks(), 2)
	defer src.Close()
	_, release, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	release()
	cancel()
	for {
		_, release, err := src.Next()
		if err == io.EOF {
			t.Fatal("replay with canceled context drained to EOF")
		}
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		release()
	}
}

// readAll decodes data fully through every read path — Range events,
// Columns chunks from two workers, and the run-token scan — and
// returns each path's error; an open failure is every path's error.
// The token scan reads only the token streams, so it legitimately
// accepts damage confined to the taken and address columns.
func readAll(data []byte, prog *isa.Program) (rangeErr, colErr, scanErr error) {
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err, err, err
	}
	src := ir.Range(prog, 0, ir.Chunks())
	for {
		_, release, err := src.Next()
		if err != nil {
			if err != io.EOF {
				rangeErr = err
			}
			break
		}
		release()
	}
	src.Close()
	csrc := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2)
	for {
		_, release, err := csrc.Next()
		if err != nil {
			if err != io.EOF {
				colErr = err
			}
			break
		}
		release()
	}
	csrc.Close()
	scanErr = ir.ScanRunTokens(context.Background(), prog, 0, ir.Chunks(), func(pc, n int32, rep int64) {})
	return rangeErr, colErr, scanErr
}

// requireRejected fails the test unless both full decoders reject data.
func requireRejected(t *testing.T, data []byte, prog *isa.Program, what string) {
	t.Helper()
	rangeErr, colErr, _ := readAll(data, prog)
	if rangeErr == nil {
		t.Fatalf("%s: accepted by Range", what)
	}
	if colErr == nil {
		t.Fatalf("%s: accepted by Columns", what)
	}
}

func TestTruncatedTraceRejected(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 256)
	if r, c, s := readAll(data, prog); r != nil || c != nil || s != nil {
		t.Fatalf("pristine trace rejected: %v / %v / %v", r, c, s)
	}
	for n := 0; n < len(data); n++ {
		if _, err := NewIndexedReader(bytes.NewReader(data[:n]), int64(n)); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
}

func TestBitFlippedTraceRejected(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 256)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte{}, data...)
		pos, bit := r.Intn(len(mut)), r.Intn(8)
		mut[pos] ^= 1 << bit
		requireRejected(t, mut, prog, fmt.Sprintf("trial %d: bit %d of byte %d flipped", trial, bit, pos))
	}
}

func TestDecodeRejectsOutOfRangePC(t *testing.T) {
	data, _, _ := writeTestTrace(t, 100, 64)
	small := testProgram(1) // every PC > 0 is out of range
	rangeErr, colErr, scanErr := readAll(data, small)
	if rangeErr == nil || colErr == nil || scanErr == nil {
		t.Fatalf("decode against too-small program accepted: %v / %v / %v", rangeErr, colErr, scanErr)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("BOGUSMAG"),
		[]byte("BPTRACE9"),
		[]byte("BPTRACE0"),
		[]byte(headerMagic),
	} {
		if _, err := NewIndexedReader(bytes.NewReader(data), int64(len(data))); err == nil {
			t.Fatalf("header %q accepted", data)
		}
	}
}
