package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioperfload/internal/runstream"
)

// TestIndexedReaderRoundTrip opens a multi-chunk trace through the
// footer index and checks that every chunk range decodes to exactly the
// events the index promises, including single-chunk and full-file
// ranges.
func TestIndexedReaderRoundTrip(t *testing.T) {
	const n, chunk = 10000, 256
	data, evs, prog := writeTestTrace(t, n, chunk)
	ir, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if ir.Meta().Program != "synthetic" {
		t.Fatalf("meta %+v", ir.Meta())
	}
	if ir.TotalEvents() != n {
		t.Fatalf("TotalEvents=%d, want %d", ir.TotalEvents(), n)
	}
	wantChunks := (n + chunk - 1) / chunk
	if ir.Chunks() != wantChunks {
		t.Fatalf("Chunks=%d, want %d", ir.Chunks(), wantChunks)
	}
	// Full-file range reproduces the stream.
	src := ir.Range(prog, 0, ir.Chunks())
	got := drain(t, src)
	src.Close()
	checkEvents(t, got, evs)
	// Disjoint sub-ranges cover the trace without overlap or gaps.
	for _, split := range []int{1, 7, ir.Chunks() - 1} {
		lo := ir.Base(split)
		s1 := ir.Range(prog, 0, split)
		s2 := ir.Range(prog, split, ir.Chunks())
		g1 := drain(t, s1)
		g2 := drain(t, s2)
		s1.Close()
		s2.Close()
		checkEvents(t, g1, evs[:lo])
		checkEvents(t, g2, evs[lo:])
	}
}

// TestIndexedReaderRejectsCorruptFooter flips every bit of the footer
// — terminator byte, run dictionary, chunk index, fixed tail, and their
// CRCs — and truncates the file; every mutation must be detected at
// open or at decode, never silently accepted.
func TestIndexedReaderRejectsCorruptFooter(t *testing.T) {
	data, _, prog := writeTestTrace(t, 2000, 256)
	if r, c, _ := readAll(data, prog); r != nil || c != nil {
		t.Fatalf("pristine trace rejected: %v / %v", r, c)
	}
	ir := openTestTrace(t, data)
	if data[ir.dataEnd] != 0 {
		t.Fatalf("sweep start holds %#x, want the terminator byte", data[ir.dataEnd])
	}
	for off := int(ir.dataEnd); off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, data...)
			mut[off] ^= 1 << bit
			requireRejected(t, mut, prog, fmt.Sprintf("bit flip at offset %d bit %d", off, bit))
		}
	}
	for cut := 1; cut <= len(data)-int(ir.dataEnd); cut++ {
		requireRejected(t, data[:len(data)-cut], prog, fmt.Sprintf("truncation by %d bytes", cut))
	}
}

// TestIndexedReaderRejectsChunkMismatches: a chunk whose recorded base
// or event count disagrees with the footer index — each frame
// internally consistent, CRCs intact — is rejected by every read path.
func TestIndexedReaderRejectsChunkMismatches(t *testing.T) {
	prog := testProgramMixed(64)
	p := validV4Parts() // 16 events over the run [0,8)
	chunk0 := p.encode()
	p.base = 16
	chunk1 := p.encode()
	dict := []dictRun{{pc: 0, n: 8}}
	pristine := assembleTrace([][]byte{chunk0, chunk1}, []uint64{16, 16}, dict)
	if r, c, s := readAll(pristine, prog); r != nil || c != nil || s != nil {
		t.Fatalf("pristine assembled trace rejected: %v / %v / %v", r, c, s)
	}
	for _, tc := range []struct {
		name   string
		chunks [][]byte
		events []uint64
	}{
		{"second chunk repeats base 0", [][]byte{chunk0, chunk0}, []uint64{16, 16}},
		{"first chunk starts at base 16", [][]byte{chunk1, chunk1}, []uint64{16, 16}},
		{"index records too few events", [][]byte{chunk0, chunk1}, []uint64{8, 16}},
		{"index records too many events", [][]byte{chunk0, chunk1}, []uint64{16, 24}},
	} {
		data := assembleTrace(tc.chunks, tc.events, dict)
		rangeErr, colErr, scanErr := readAll(data, prog)
		if rangeErr == nil || colErr == nil || scanErr == nil {
			t.Errorf("%s: accepted (Range %v, Columns %v, ScanRunTokens %v)", tc.name, rangeErr, colErr, scanErr)
		}
	}
}

// TestIndexedReaderRejectsLegacyVersions opens the recorded v1–v3
// fixtures: each must fail with ErrUnsupportedVersion, and the message
// must tell the user to re-record.
func TestIndexedReaderRejectsLegacyVersions(t *testing.T) {
	for v := 1; v <= 3; v++ {
		data := legacyFixture(t, v)
		if want := fmt.Sprintf("BPTRACE%d", v); string(data[:8]) != want {
			t.Fatalf("v%d fixture magic %q, want %q", v, data[:8], want)
		}
		_, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("v%d fixture: err=%v, want ErrUnsupportedVersion", v, err)
		}
		if !strings.Contains(err.Error(), "re-record") {
			t.Errorf("v%d fixture: error %q does not say to re-record", v, err)
		}
	}
}

// legacyFixture returns testdata/legacy/v<v>.trace: the first 1024
// events of a test-size hmmsearch run, recorded at format v<v> (256
// events per chunk) before those formats were retired.
func legacyFixture(t testing.TB, v int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", fmt.Sprintf("v%d.trace", v)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestColumnsRejectsV1: a v1 trace never reaches the column decoder —
// without an IndexedReader there is no column source to build.
func TestColumnsRejectsV1(t *testing.T) {
	data := legacyFixture(t, 1)
	if _, err := NewIndexedReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("open v1 trace: err=%v, want ErrUnsupportedVersion", err)
	}
}

// TestChunkBoundaryGoldens pins the writer/reader behavior at the
// awkward sizes: an event count that is an exact multiple of the chunk
// capacity (no partial final chunk), a single full chunk, and the
// empty trace.
func TestChunkBoundaryGoldens(t *testing.T) {
	for _, tc := range []struct {
		n, chunk   int
		wantChunks int
	}{
		{256, 256, 1},  // exactly one full chunk
		{1024, 256, 4}, // exact multiple, no partial tail chunk
		{0, 256, 0},    // empty trace: header + footer only
	} {
		data, evs, prog := writeTestTrace(t, tc.n, tc.chunk)
		ir := openTestTrace(t, data)
		if ir.Chunks() != tc.wantChunks {
			t.Fatalf("n=%d chunk=%d: Chunks=%d, want %d", tc.n, tc.chunk, ir.Chunks(), tc.wantChunks)
		}
		if ir.TotalEvents() != uint64(tc.n) {
			t.Fatalf("n=%d: TotalEvents=%d", tc.n, ir.TotalEvents())
		}
		src := ir.Range(prog, 0, ir.Chunks())
		got := drain(t, src)
		src.Close()
		checkEvents(t, got, evs)
		checkColumns(t, ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2), evs, prog)
	}
}

// TestSourceCloseMidStream: Close with chunks still undelivered must
// make every later Next fail with ErrClosed — sticky, for both the
// event source and the column source — rather than read through
// released or recycled buffers.
func TestSourceCloseMidStream(t *testing.T) {
	data, _, prog := writeTestTrace(t, 5000, 64)
	ir := openTestTrace(t, data)
	type source interface {
		next() error
		Close()
	}
	sources := map[string]func() source{
		"range": func() source {
			return rangeSource{ir.Range(prog, 0, ir.Chunks())}
		},
		"columns": func() source {
			return columnsSource{ir.Columns(context.Background(), prog, 0, ir.Chunks(), 2)}
		},
	}
	for name, open := range sources {
		src := open()
		if err := src.next(); err != nil {
			t.Fatalf("%s: first Next: %v", name, err)
		}
		src.Close()
		for i := 0; i < 3; i++ {
			if err := src.next(); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s: Next after Close (call %d): err=%v, want ErrClosed", name, i, err)
			}
		}
		src.Close() // double Close must be safe
	}
}

type rangeSource struct{ *Source }

func (s rangeSource) next() error {
	_, release, err := s.Next()
	if err == nil {
		release()
	}
	return err
}

type columnsSource struct{ runstream.Source }

func (s columnsSource) next() error {
	_, release, err := s.Next()
	if err == nil {
		release()
	}
	return err
}
