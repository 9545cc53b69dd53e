package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// recordTestEvents encodes evs over prog as a trace with the given
// chunk size.
func recordTestEvents(t *testing.T, prog *isa.Program, evs []sim.Event, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewWriter(&buf, Meta{Program: prog.Name, Size: "test", ChunkEvents: chunk}, prog)
	tw.ObserveBatch(evs)
	if err := tw.Close(); err != nil {
		t.Fatalf("close writer: %v", err)
	}
	return buf.Bytes()
}

// garbleChunk returns a copy of data whose chunk c carries 0xff bytes
// over the second half of its stored payload under a recomputed CRC,
// so the frame passes validation and the decoder itself fails on it.
func garbleChunk(t *testing.T, data []byte, ir *IndexedReader, c int) []byte {
	t.Helper()
	mut := bytes.Clone(data)
	fr := mut[ir.chunks[c].offset:ir.rangeEnd(c+1)]
	_, k1 := binary.Uvarint(fr)
	_, k2 := binary.Uvarint(fr[k1+1:])
	crcAt := k1 + 1 + k2
	payload := fr[crcAt+4:]
	for i := len(payload) / 2; i < len(payload); i++ {
		payload[i] = 0xff
	}
	binary.LittleEndian.PutUint32(fr[crcAt:], crc32.ChecksumIEEE(payload))
	return mut
}

// decoded is one chunk decoded both ways a decoder serves, columns
// (Columns) and run tokens (ScanRunTokens), plus the columns expanded
// into events as Range expands them.
type decoded struct {
	cols   runstream.Chunk
	evs    []sim.Event
	tokens [][3]int64
}

// decodeChunks decodes chunks of ir in order through dec, each both
// ways, and stops at the first error.
func decodeChunks(t *testing.T, ir *IndexedReader, prog *isa.Program, dec *decoder) ([]decoded, error) {
	t.Helper()
	if err := ir.dict.bindShared(prog); err != nil {
		t.Fatal(err)
	}
	var out []decoded
	for c := 0; c < ir.Chunks(); c++ {
		var d decoded
		ch, err := ir.decodeColumns(context.Background(), dec, c)
		if err != nil {
			return out, err
		}
		d.cols = *ch
		d.evs = sim.AppendEvents(nil, prog, ch)
		f, err := ir.frameAt(c, &dec.frame)
		if err != nil {
			return out, err
		}
		col, err := dec.framePCColumn(f)
		if err != nil {
			return out, err
		}
		_, _, err = scanChunkTokensV4(col, ir.dict, &dec.sc, func(pc, n int32, rep int64) {
			d.tokens = append(d.tokens, [3]int64{int64(pc), int64(n), rep})
		})
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// TestPooledDecoderCarriesNoState pins what the decoder pool relies
// on: a decoder that has served one trace, even one whose decode
// failed partway, decodes another trace exactly as a new decoder does.
// One decoder serves each trace in turn, rebound to its dictionary as
// getDecoder rebinds a pooled one: trace A whole; a copy of A garbled
// in chunk 3, which must fail there; then trace B, a different program
// with a different dictionary, chunk size and address chains, whose
// every chunk must equal a new decoder's on both decode paths. The new
// decoder's events must be the stream trace B was recorded from.
func TestPooledDecoderCarriesNoState(t *testing.T) {
	dataA, _, progA := writeTestTrace(t, 6000, 512)
	progB := testProgramMixed(300)
	evsB := testEventStream(5000, progB)
	dataB := recordTestEvents(t, progB, evsB, 256)
	irA, irB := openTestTrace(t, dataA), openTestTrace(t, dataB)
	badA := openTestTrace(t, garbleChunk(t, dataA, irA, 3))

	want, err := decodeChunks(t, irB, progB, &decoder{dict: irB.dict})
	if err != nil || len(want) != irB.Chunks() {
		t.Fatalf("new decoder over trace B: %d chunks, %v", len(want), err)
	}
	var all []sim.Event
	for _, d := range want {
		all = append(all, d.evs...)
	}
	checkEvents(t, all, evsB)

	dec := &decoder{dict: irA.dict}
	if got, err := decodeChunks(t, irA, progA, dec); err != nil || len(got) != irA.Chunks() {
		t.Fatalf("trace A: %d chunks, %v", len(got), err)
	}
	dec.dict = badA.dict
	if got, err := decodeChunks(t, badA, progA, dec); err == nil || len(got) != 3 {
		t.Fatalf("garbled trace A: decoded %d chunks, error %v; want a failure at chunk 3", len(got), err)
	}
	dec.dict = irB.dict
	got, err := decodeChunks(t, irB, progB, dec)
	if err != nil {
		t.Fatalf("reused decoder over trace B: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a decoder reused after trace A and a failed decode decodes trace B differently from a new one")
	}
}
