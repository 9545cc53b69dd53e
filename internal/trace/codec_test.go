package trace

import (
	"math"
	"testing"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// encodeChunk encodes evs as one bare chunk payload starting at event
// base, through a sim.Builder and a fresh writer dictionary. It
// returns the payload and a reader-side copy of the dictionary, as a
// footer would carry it, bound to prog.
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
	if err == nil {
		err = dict.bindShared(prog)
	}
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

// TestChunkRoundTrip: a chunk's column decode, expanded, is the event
// stream it was encoded from, final target included.
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
			var ch runstream.Chunk
			if err := decodeChunkColumnsV4(buf, dict, &ch, &sc); err != nil {
				t.Fatalf("n=%d base %d: decode: %v", n, base, err)
			}
			if ch.Base != base || ch.N != n {
				t.Fatalf("n=%d: base %d and %d events, want %d and %d", n, ch.Base, ch.N, base, n)
			}
			checkEvents(t, sim.AppendEvents(nil, prog, &ch), rebased(evs, base))
		}
	}
}

// TestChunkDecodeRecyclesBuffer: decoding into a chunk that held a
// larger one reuses its columns' storage.
func TestChunkDecodeRecyclesBuffer(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	big := testEventStream(500, prog)
	small := testEventStream(20, prog)
	buf, dict, err := encodeChunk(prog, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	var sc v4Scratch
	var ch runstream.Chunk
	if err := decodeChunkColumnsV4(buf, dict, &ch, &sc); err != nil {
		t.Fatal(err)
	}
	addrs, tokens := &ch.Addrs[:1][0], &ch.Tokens[:1][0]
	buf2, dict2, err := encodeChunk(prog, 500, small)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeChunkColumnsV4(buf2, dict2, &ch, &sc); err != nil {
		t.Fatal(err)
	}
	checkEvents(t, sim.AppendEvents(nil, prog, &ch), rebased(small, 500))
	if &ch.Addrs[:1][0] != addrs || &ch.Tokens[:1][0] != tokens {
		t.Error("decode did not reuse the chunk's columns")
	}
}

func TestChunkDecodeRejectsCorruption(t *testing.T) {
	prog := testProgramMixed(1 << 12)
	buf, dict, err := encodeChunk(prog, 42, testEventStream(100, prog))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte, dict *v4Dict) error {
		var sc v4Scratch
		return decodeChunkColumnsV4(data, dict, new(runstream.Chunk), &sc)
	}

	// Truncation at every prefix length must error, never panic.
	for n := 0; n < len(buf); n++ {
		if err := decode(buf[:n], dict); err == nil {
			t.Fatalf("truncated chunk (%d of %d bytes) decoded without error", n, len(buf))
		}
	}

	// Trailing garbage is rejected.
	if err := decode(append(append([]byte{}, buf...), 0), dict); err == nil {
		t.Error("chunk with trailing byte decoded without error")
	}

	// A hostile event count cannot cause a huge allocation.
	hostile := []byte{0, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if err := decode(hostile, dict); err == nil {
		t.Error("hostile event count decoded without error")
	}

	// A final target delta that puts the target outside int32 is
	// rejected; the reference chunk's last run ends at pc 8.
	small, err := parseDictPayload(appendDictPayload(nil, []dictRun{{pc: 0, n: 8}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := small.bindShared(testProgramMixed(64)); err != nil {
		t.Fatal(err)
	}
	for _, final := range []int64{-8, math.MinInt32 - 8, math.MaxInt32 - 8} {
		p := validV4Parts()
		p.final = final
		if err := decode(p.encode(), small); err != nil {
			t.Errorf("final delta %d (target %d) rejected: %v", final, 8+final, err)
		}
	}
	for _, final := range []int64{math.MaxInt32 - 7, math.MinInt32 - 9, 1 << 40} {
		p := validV4Parts()
		p.final = final
		if err := decode(p.encode(), small); err == nil {
			t.Errorf("final delta %d (target %d) decoded without error", final, 8+final)
		}
	}
}
