// Package runstream defines the column-oriented chunk stream the
// block-characterized engine consumes: dictionary tokens of
// straight-line PC runs plus the taken and address columns of one
// chunk, without per-event records. It holds types only and imports
// nothing from the project.
//
// Two producers build the stream. The simulator builds it live: the
// interpreter appends chunk columns itself (sim.Machine.SetChunkSink),
// and sim.Builder rebuilds the same chunks from event slabs it did not
// produce. The trace package's column decode
// (trace.IndexedReader.Columns) builds it from a recorded trace. Four
// consumers read it: loadchar's run engine (Analysis.ObserveChunk,
// loadchar.AnalyzeRuns), the trace encoder (trace.Writer.WriteChunk),
// the timing model (pipeline.Model.ObserveChunk) on both tiers, whose
// sampled tier sees only the chunks of its observe windows, and
// sim.AppendEvents, which expands a chunk back into the events it
// stands for (trace.IndexedReader.Range).
package runstream

// Run is one maximal straight-line PC run: N events whose PCs are
// PC, PC+1, ..., PC+N-1, in commit order.
type Run struct {
	PC int32
	N  int32
}

// Token is one run-dictionary reference in a chunk's token stream:
// the run Dict.Runs[ID] executed Rep times back to back. Adjacent
// tokens never share an ID (the encoder merges them), so Rep > 1 is
// exactly the tight-loop case the block-characterized engine turns
// into counter multiplies.
type Token struct {
	ID  int32
	Rep int32
}

// Dict is the run dictionary of a trace or a live simulation: the
// deduplicated vocabulary of straight-line PC runs its token streams
// reference. It is shared by every chunk of one stream; entries are
// only ever appended.
type Dict struct {
	Runs []Run
}

// Chunk is the column view of one trace chunk: the chunk's PC
// sequence as dictionary tokens, plus the two columns the program text
// cannot predict. Expanding each token Rep times against Dict
// reproduces exactly the PC sequence of the chunk's events.
type Chunk struct {
	// Base is the sequence number of the chunk's first event.
	Base uint64
	// N is the event count.
	N int
	// Dict is the stream-wide run dictionary. It is shared across
	// chunks and must not be mutated; it only grows, so ids stay
	// stable.
	Dict *Dict
	// Tokens is the chunk's PC sequence as dictionary references.
	Tokens []Token
	// BrTaken is the branch-outcome bitmap: one bit per conditional-
	// branch event, in commit order (bit i set ⇔ the chunk's i-th
	// dynamic conditional branch was taken). Unconditional branches
	// are always taken and other events never are.
	BrTaken []byte
	// Addrs holds the effective addresses of the chunk's memory-class
	// (load/store) events in commit order, one entry per memory event,
	// zero addresses included, so a cursor advances once per memory
	// offset with no presence test.
	Addrs []uint64
	// Target is the last event's target: the next PC the program
	// executed. Every producer sets it, the trace decode from the
	// chunk's final target delta; every other target is the next
	// event's PC.
	Target int32
}

// Source streams Chunks in commit order. Next returns the next chunk
// and a release function that recycles its buffers; it returns io.EOF
// after the final chunk. Close releases underlying resources and may
// be called at any time, including before EOF.
type Source interface {
	Next() (*Chunk, func(), error)
	Close()
}
