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

// checkColumns drains a column source and verifies every column against
// the original event stream.
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
		i = checkChunk(t, ch, evs, i, prog)
		release()
	}
	if i != len(evs) {
		t.Fatalf("columns covered %d events, want %d", i, len(evs))
	}
}

// checkChunk verifies one chunk starting at event i and returns the
// index past it: tokens expand against the shared
// dictionary, BrTaken carries one bit per conditional branch, and
// Addrs one entry per memory event, zero addresses included.
func checkChunk(t *testing.T, ch *runstream.Chunk, evs []sim.Event, i int, prog *isa.Program) int {
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

// TestColumnsMatchEvents drains the column source at several worker
// counts, including more workers than the claim scheduler's ring would
// otherwise see.
func TestColumnsMatchEvents(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		data, evs, prog := writeTestTrace(t, 5000, 256)
		ir := openTestTrace(t, data)
		checkColumns(t, ir.Columns(context.Background(), prog, 0, ir.Chunks(), workers), evs, prog)
	}
}

// TestColumnsCommitOrderUnderContention drains many tiny chunks through
// more workers than CPUs, many times over. A claimant that is
// descheduled for a window's worth of chunks must still deliver its own
// chunk in its turn, not lose its slot to the claimant one window later.
func TestColumnsCommitOrderUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	data, _, prog := writeTestTrace(t, 20000, 16)
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

func TestColumnsSubrangeAndCancel(t *testing.T) {
	data, evs, prog := writeTestTrace(t, 5000, 256)
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

// TestColumnsCorruptionDetected flips bytes inside chunk frames and
// requires every mutation to either fail or decode to the same columns
// as the pristine trace (CRC collisions aside, a flip must never be
// silently absorbed into different data).
func TestColumnsCorruptionDetected(t *testing.T) {
	data, evs, prog := writeTestTrace(t, 2000, 256)
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
