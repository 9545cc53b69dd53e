// Package runstream defines the column-oriented chunk stream the
// block-characterized engine consumes: dictionary tokens of
// straight-line PC runs plus the taken and address columns of one
// chunk, without per-event records. Two producers build it — the Builder from a live simulation, and the
// trace package's column decode (trace.IndexedReader.Columns) from a
// recorded trace — and two consumers read it: loadchar's run engine
// (Analysis.ObserveChunk, loadchar.AnalyzeRuns) and the trace
// encoder (trace.Writer.WriteChunk). Keeping the types here breaks
// what would otherwise be an import cycle between the two packages.
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

// Dict is the run dictionary of a trace or a Builder: the
// deduplicated vocabulary of straight-line PC runs its token streams
// reference. It is shared by every chunk of one stream; entries are
// only ever appended.
type Dict struct {
	Runs []Run
}

// Chunk is the column view of one trace chunk: the chunk's PC
// sequence as dictionary tokens, plus the two columns the program text
// cannot predict. Expanding each token Rep times against Dict
// reproduces exactly the PC sequence a full event decode yields.
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
	// executed. Only the Builder sets it; every other target is the
	// next event's PC.
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
