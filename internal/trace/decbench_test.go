package trace

import (
	"testing"

	"bioperfload/internal/sim"
)

func BenchmarkDecodeChunkEvents(b *testing.B) {
	prog := testProgramMixed(1 << 12)
	data, dict, err := encodeChunk(prog, 0, testEventStream(ChunkEvents, prog))
	if err != nil {
		b.Fatal(err)
	}
	var sc v4Scratch
	evs := make([]sim.Event, 0, ChunkEvents)
	b.SetBytes(ChunkEvents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := decodeChunkEventsV4(data, prog, dict, evs, &sc)
		if err != nil {
			b.Fatal(err)
		}
		evs = out[:0]
	}
}
