package trace

import (
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// encodeChunk encodes evs as one bare chunk payload starting at event
// base, through a sim.Builder and a fresh writer dictionary. It
// returns the payload and a reader-side copy of the dictionary, as a
// footer would carry it.
func encodeChunk(prog *isa.Program, base uint64, evs []sim.Event) ([]byte, *v4Dict, error) {
	vw := newV4Writer(prog)
	var out []byte
	var err error
	b := sim.NewBuilder(prog, len(evs), func(ch *runstream.Chunk) {
		out, _, err = vw.appendChunk(nil, base, ch)
	})
	b.ObserveBatch(evs)
	b.Flush()
	if b.Err() != nil {
		return nil, nil, b.Err()
	}
	if err != nil {
		return nil, nil, err
	}
	dict, err := parseDictPayload(appendDictPayload(nil, vw.dict.runs))
	return out, dict, err
}

// rebased returns a copy of evs with sequence numbers starting at base.
func rebased(evs []sim.Event, base uint64) []sim.Event {
	out := append([]sim.Event(nil), evs...)
	for i := range out {
		out[i].Seq = base + uint64(i)
	}
	return out
}

func TestChunkRoundTrip(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	for _, n := range []int{1, 7, 8, 9, 1000, ChunkEvents} {
		evs := testEventStream(n, prog)
		for _, base := range []uint64{0, 1, 1 << 40} {
			buf, dict, err := encodeChunk(prog, base, evs)
			if err != nil {
				t.Fatalf("n=%d base %d: encode: %v", n, base, err)
			}
			var sc v4Scratch
			gotBase, got, err := decodeChunkEventsV4(buf, prog, dict, nil, &sc)
			if err != nil {
				t.Fatalf("n=%d base %d: decode: %v", n, base, err)
			}
			if gotBase != base {
				t.Fatalf("n=%d: base %d, want %d", n, gotBase, base)
			}
			checkEvents(t, got, rebased(evs, base))
		}
	}
}

func TestChunkDecodeRecyclesBuffer(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	big := testEventStream(500, prog)
	small := testEventStream(20, prog)
	buf, dict, err := encodeChunk(prog, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	var sc v4Scratch
	_, evs, err := decodeChunkEventsV4(buf, prog, dict, nil, &sc)
	if err != nil {
		t.Fatal(err)
	}
	buf2, dict2, err := encodeChunk(prog, 500, small)
	if err != nil {
		t.Fatal(err)
	}
	_, evs2, err := decodeChunkEventsV4(buf2, prog, dict2, evs, &sc)
	if err != nil {
		t.Fatal(err)
	}
	checkEvents(t, evs2, rebased(small, 500))
	if &evs2[0] != &evs[0] {
		t.Error("decode did not reuse the provided buffer")
	}
}

func TestChunkDecodeRejectsCorruption(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	buf, dict, err := encodeChunk(prog, 42, testEventStream(100, prog))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte) error {
		var sc v4Scratch
		_, _, err := decodeChunkEventsV4(data, prog, dict, nil, &sc)
		return err
	}

	// Truncation at every prefix length must error, never panic.
	for n := 0; n < len(buf); n++ {
		if err := decode(buf[:n]); err == nil {
			t.Fatalf("truncated chunk (%d of %d bytes) decoded without error", n, len(buf))
		}
	}

	// Trailing garbage is rejected.
	if err := decode(append(append([]byte{}, buf...), 0)); err == nil {
		t.Error("chunk with trailing byte decoded without error")
	}

	// A hostile event count cannot cause a huge allocation.
	hostile := []byte{0, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if err := decode(hostile); err == nil {
		t.Error("hostile event count decoded without error")
	}
}
