package trace_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// recordRun simulates one program at test size with a live analysis
// and a trace writer attached to the same machine, returning the
// program, the live profile text, the encoded trace, and the
// instruction count.
func recordRun(t *testing.T, name string) (*isa.Program, string, []byte, uint64) {
	t.Helper()
	p, err := bio.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(m, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	live := loadchar.New(prog)
	m.AddObserver(live)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: name, Size: "test"}, prog)
	m.AddBatchObserver(tw)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(res, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != res.Instructions {
		t.Fatalf("%s: trace recorded %d events, run committed %d", name, tw.Events(), res.Instructions)
	}
	return prog, loadchar.RenderProfile(name, "test", live, 10), buf.Bytes(), res.Instructions
}

// TestReplayProfileGolden is the replay-fidelity golden test: a
// characterization computed from a recorded trace — decoded
// sequentially or by parallel chunk decoders — renders byte-identical
// to one computed live during simulation.
func TestReplayProfileGolden(t *testing.T) {
	for _, name := range []string{"hmmsearch", "predator"} {
		prog, want, data, insts := recordRun(t, name)

		// Sequential replay through the BatchObserver contract.
		tr, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Meta().Program != name {
			t.Fatalf("%s: trace meta names %q", name, tr.Meta().Program)
		}
		seq := loadchar.New(prog)
		n, err := tr.Replay(context.Background(), prog, seq)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if n != insts {
			t.Fatalf("%s: replayed %d events, want %d", name, n, insts)
		}
		if got := loadchar.RenderProfile(name, "test", seq, 10); got != want {
			t.Errorf("%s: sequential replay profile differs from live:\n--- live ---\n%s\n--- replay ---\n%s", name, want, got)
		}

		// Parallel chunk decode feeding one analysis in commit order.
		tr2, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := tr2.ParallelEvents(prog, 2)
		par := loadchar.New(prog)
		for {
			evs, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: parallel decode: %v", name, err)
			}
			par.ObserveBatch(evs)
			release()
		}
		src.Close()
		if got := loadchar.RenderProfile(name, "test", par, 10); got != want {
			t.Errorf("%s: parallel replay profile differs from live:\n--- live ---\n%s\n--- replay ---\n%s", name, want, got)
		}
	}
}
