package trace

import (
	"testing"

	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// BenchmarkDecodeChunkColumns times the one chunk-payload decoder over
// a full synthetic chunk.
func BenchmarkDecodeChunkColumns(b *testing.B) {
	prog := testProgramMixed(1 << 12)
	data, dict, err := encodeChunk(prog, 0, testEventStream(ChunkEvents, prog))
	if err != nil {
		b.Fatal(err)
	}
	var sc v4Scratch
	var ch runstream.Chunk
	b.SetBytes(ChunkEvents)
	for b.Loop() {
		if err := decodeChunkColumnsV4(data, dict, &ch, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendEvents times Range's expansion of a decoded chunk
// into an event slab, apart from the decode.
func BenchmarkAppendEvents(b *testing.B) {
	prog := testProgramMixed(1 << 12)
	data, dict, err := encodeChunk(prog, 0, testEventStream(ChunkEvents, prog))
	if err != nil {
		b.Fatal(err)
	}
	var sc v4Scratch
	var ch runstream.Chunk
	if err := decodeChunkColumnsV4(data, dict, &ch, &sc); err != nil {
		b.Fatal(err)
	}
	evs := make([]sim.Event, 0, ChunkEvents)
	b.SetBytes(ChunkEvents)
	for b.Loop() {
		evs = sim.AppendEvents(evs[:0], prog, &ch)
	}
}
