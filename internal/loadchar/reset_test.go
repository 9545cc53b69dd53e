package loadchar

import (
	"context"
	"io"
	"reflect"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/isa"
	"bioperfload/internal/trace"
)

// observeColumns feeds chunks [lo, hi) of ir to a in commit order.
func observeColumns(t *testing.T, a *Analysis, ir *trace.IndexedReader, prog *isa.Program, lo, hi int) {
	t.Helper()
	src := ir.Columns(context.Background(), prog, lo, hi, 2)
	defer src.Close()
	for {
		ch, release, err := src.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		a.ObserveChunk(ch)
		release()
	}
}

// TestResetMatchesNew: an analysis that has observed the second
// quarter of a program's chunks (warm cache and predictor, nonzero
// occurrence counts, a run engine stopped mid-stream) plus a partial
// Builder chunk, and is then Reset, reports exactly what a new
// analysis does: an empty Snapshot at once, then the same Snapshot as
// a new analysis fed the second half of the chunks, which starts
// mid-stream, where a leftover machine state would change the
// dependence and sequence credits. Reset again, it matches a new
// analysis over the whole stream, render included. Every program runs
// at test size. A restored analysis refuses Reset.
func TestResetMatchesNew(t *testing.T) {
	var last *Analysis
	for _, p := range bio.All() {
		prog, _, slabs := captureSlabs(t, p.Name)
		ir := recordTrace(t, p.Name, prog, slabs, 1<<12)
		n := ir.Chunks()
		fresh := func(lo int) *Analysis {
			a := New(prog)
			observeColumns(t, a, ir, prog, lo, n)
			return a
		}

		a := New(prog)
		observeColumns(t, a, ir, prog, n/4, n/2)
		a.ObserveBatch(slabs[0][:100])
		a.Reset()
		if got := a.Snapshot(); !reflect.DeepEqual(got, New(prog).Snapshot()) {
			t.Fatalf("%s: snapshot right after Reset differs from a new analysis's", p.Name)
		}
		observeColumns(t, a, ir, prog, n/2, n)
		if !reflect.DeepEqual(a.Snapshot(), fresh(n/2).Snapshot()) {
			t.Fatalf("%s: snapshot after Reset and the second half differs from a new analysis's", p.Name)
		}
		a.Reset()
		observeColumns(t, a, ir, prog, 0, n)
		if err := a.Err(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		whole := fresh(0)
		if !reflect.DeepEqual(a.Snapshot(), whole.Snapshot()) {
			t.Fatalf("%s: snapshot after a second Reset and the whole stream differs from a new analysis's", p.Name)
		}
		if got, w := RenderProfile(p.Name, "test", a, 10), RenderProfile(p.Name, "test", whole, 10); got != w {
			t.Fatalf("%s: profile after Reset differs from a new analysis's:\n--- new ---\n%s\n--- reset ---\n%s", p.Name, w, got)
		}
		last = a
	}

	restored, err := FromSnapshot(last.prog, last.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset on a restored analysis did not panic")
		}
	}()
	restored.Reset()
}
