package simpoint

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// benchTrace records a synthetic commit stream with dnapenny-like
// branch density (a control transfer every ~6 events) so the scan
// benchmark exercises short straight-line runs, the worst case for
// per-run overhead.
func benchTrace(b *testing.B, n int) (*trace.IndexedReader, *isa.Program) {
	b.Helper()
	prog := branchyProgram(1 << 10)
	r := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: prog.Name, Size: "bench"}, prog)
	evs := make([]sim.Event, 4096)
	pc := int32(0)
	for seq := 0; seq < n; {
		batch := evs[:0]
		for len(batch) < cap(batch) && seq < n {
			next := pc + 1
			if r.Intn(6) == 0 || int(next) >= len(prog.Insts) {
				next = int32(r.Intn(len(prog.Insts)))
			}
			batch = append(batch, sim.Event{
				Seq: uint64(seq), PC: pc, Inst: &prog.Insts[pc], Target: next,
				Taken: isa.ClassOf(prog.Insts[pc].Op) == isa.ClassUncondBranch,
			})
			pc = next
			seq++
		}
		tw.ObserveBatch(batch)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	return ir, prog
}

func BenchmarkCollectTrace(b *testing.B) {
	const n = 1 << 22
	ir, prog := benchTrace(b, n)
	cfg := Config{IntervalSize: 1 << 18}
	ctx := context.Background()
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectTrace(ctx, prog, ir, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}
