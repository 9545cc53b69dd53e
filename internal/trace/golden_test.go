package trace_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// v4TraceGoldens are the SHA-256s of the nine programs' test-size v4
// traces (default chunk size, Meta{Program, Size: "test"}), as the
// per-record v4 encoder wrote them, before the encoder consumed run
// chunks.
var v4TraceGoldens = map[string]string{
	"blast":        "9e9d8f447d7247bdb4cb6d8d7d0de8c16267c7ae012fa500e9d00f8071f673b5",
	"clustalw":     "af9d53733c9efd85d8e535e9d15cc99cc25205914a864ff0553da54b83781e20",
	"dnapenny":     "2200bf256d9226b6a57a0acb4b80a03701c37c189bb12a036286661c8c668b67",
	"fasta":        "f15e48d7134906ab996685b95f6b9e227d8838291eb8d985864ddc54ea8f5bc8",
	"hmmcalibrate": "eea47bbfcbad49b61a1cffa92ff3f8ee0b464572d4a673bd2b889fd18db2aec5",
	"hmmpfam":      "68e61b2c4827ff805a410c331528f035c66467d90d9154f2d45a6cc0ec44131c",
	"hmmsearch":    "963eee1881f98637926ac610b489466bef495d22b17f065effe3372c6c8d8c61",
	"predator":     "3fd9559ab8bd833053df74e3823d748191527b5e9aff39602bd1c0017ade9941",
	"promlk":       "ca46af6e87ba301efab9ed20f1d7b9472685cce3af420ad41f81de1b4231a4b5",
}

// TestV4TraceGoldens pins the recorded bytes of every program's
// test-size v4 trace, written both ways a recording can feed the
// Writer: events through its own Builder, and chunks from the
// machine's chunk sink, shared with a live analysis. The sink-fed
// analysis must also match a separately attached one.
func TestV4TraceGoldens(t *testing.T) {
	for _, p := range bio.All() {
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
		meta := trace.Meta{Program: p.Name, Size: "test"}
		var own, shared bytes.Buffer
		tw := trace.NewWriter(&own, meta, prog)
		m.AddBatchObserver(tw)
		live := loadchar.New(prog)
		m.AddBatchObserver(live)
		sa := loadchar.New(prog)
		sw := trace.NewWriter(&shared, meta, prog)
		m.SetChunkSink(trace.ChunkEvents, func(ch *runstream.Chunk) {
			sa.ObserveChunk(ch)
			sw.WriteChunk(ch)
		})
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []*trace.Writer{tw, sw} {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.Events() != res.Instructions {
				t.Fatalf("%s: writer recorded %d events, run committed %d", p.Name, w.Events(), res.Instructions)
			}
		}
		want := v4TraceGoldens[p.Name]
		for path, data := range map[string][]byte{"own Builder": own.Bytes(), "chunk sink": shared.Bytes()} {
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s (%s): trace SHA-256 %s, want %s", p.Name, path, got, want)
			}
		}
		if got, want := loadchar.RenderProfile(p.Name, "test", sa, 10), loadchar.RenderProfile(p.Name, "test", live, 10); got != want {
			t.Errorf("%s: chunk-sink analysis differs from a separately attached one", p.Name)
		}
	}
}

// TestWriterRefusesChunkGap: a chunk whose Base is not the writer's
// next sequence number, as a sampled chunk sink emits after a skip
// window, is a sticky error, so a sampled stream never becomes a
// stored trace.
func TestWriterRefusesChunkGap(t *testing.T) {
	const observe, period = 1000, 5000
	p, err := bio.ByName("hmmsearch")
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
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: p.Name, Size: "test", ChunkEvents: 256}, prog)
	m.SetSampling(observe, period)
	m.SetChunkSink(256, tw.WriteChunk)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tw.Err() == nil || tw.Events() != observe {
		t.Fatalf("writer took %d events of a sampled stream, error %v; want the first window's %d and an error", tw.Events(), tw.Err(), observe)
	}
	if err := tw.Close(); err == nil {
		t.Fatal("Close succeeded on a stream with a gap")
	}
}

// TestColumnsReencodeByteIdentical: every program's test-size trace,
// drained through Columns and re-encoded chunk by chunk with
// WriteChunk, is byte-identical to the recording, so the column decode
// loses nothing the encoder wrote — the final target included. A
// decoded chunk carries the footer's whole run dictionary, while the
// recorder's grew chunk by chunk; WriteChunk takes only the prefix the
// chunk's tokens reference, so the decoded chunks go to it as they
// are.
func TestColumnsReencodeByteIdentical(t *testing.T) {
	for _, p := range bio.All() {
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
		var rec bytes.Buffer
		tw := trace.NewWriter(&rec, trace.Meta{Program: p.Name, Size: "test"}, prog)
		m.SetChunkSink(trace.ChunkEvents, tw.WriteChunk)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		data := rec.Bytes()
		ir, err := trace.NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		var re bytes.Buffer
		rw := trace.NewWriter(&re, ir.Meta(), prog)
		src := ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2)
		for {
			ch, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rw.WriteChunk(ch)
			release()
		}
		src.Close()
		if err := rw.Close(); err != nil {
			t.Fatalf("%s: re-encode: %v", p.Name, err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Errorf("%s: re-encoded trace differs from the recording (%d vs %d bytes)", p.Name, re.Len(), len(data))
		}
	}
}
