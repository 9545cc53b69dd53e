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
// characterization computed from a recorded trace — events decoded in
// order and fed to a live analysis, or column chunks decoded by a
// worker pool and analyzed by the sharded run engine — renders
// byte-identical to one computed live during simulation.
func TestReplayProfileGolden(t *testing.T) {
	for _, name := range []string{"hmmsearch", "predator"} {
		prog, want, data, insts := recordRun(t, name)
		ir, err := trace.NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ir.Meta().Program != name {
			t.Fatalf("%s: trace meta names %q", name, ir.Meta().Program)
		}
		if ir.TotalEvents() != insts {
			t.Fatalf("%s: trace holds %d events, want %d", name, ir.TotalEvents(), insts)
		}

		// Event replay through the BatchObserver contract.
		seq := loadchar.New(prog)
		src := ir.Range(prog, 0, ir.Chunks())
		for {
			evs, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: replay: %v", name, err)
			}
			seq.ObserveBatch(evs)
			release()
		}
		src.Close()
		if got := loadchar.RenderProfile(name, "test", seq, 10); got != want {
			t.Errorf("%s: event replay profile differs from live:\n--- live ---\n%s\n--- replay ---\n%s", name, want, got)
		}

		// Column chunks decoded in parallel, analyzed by sharded lanes.
		csrc := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2)
		par, err := loadchar.AnalyzeRuns(context.Background(), prog, csrc, 4)
		csrc.Close()
		if err != nil {
			t.Fatalf("%s: column replay: %v", name, err)
		}
		if got := loadchar.RenderProfile(name, "test", par, 10); got != want {
			t.Errorf("%s: column replay profile differs from live:\n--- live ---\n%s\n--- replay ---\n%s", name, want, got)
		}
	}
}
