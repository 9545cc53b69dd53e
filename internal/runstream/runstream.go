// Package runstream defines the column-oriented chunk stream the
// block-characterized engine consumes: straight-line PC runs plus the
// taken and address columns of one chunk, without per-event records.
// Two producers build it — the Builder from a live simulation, and the
// trace package's column decode (trace.IndexedReader.Columns) from a
// recorded trace — and two consumers read it: loadchar's run engine
// (Analysis.ObserveChunk, loadchar.AnalyzeRuns) and the v4 trace
// encoder (trace.Writer.WriteChunk). Keeping the types here breaks
// what would otherwise be an import cycle between the two packages.
package runstream

// Run is one maximal straight-line PC run: N events whose PCs are
// PC, PC+1, ..., PC+N-1, in commit order.
type Run struct {
	PC int32
	N  int32
}

// Token is one run-dictionary reference in a v4 chunk's token stream:
// the run Dict.Runs[ID] executed Rep times back to back. Adjacent
// tokens never share an ID (the encoder merges them), so Rep > 1 is
// exactly the tight-loop case the block-characterized engine turns
// into counter multiplies.
type Token struct {
	ID  int32
	Rep int32
}

// Dict is the run dictionary of a v4 trace or a Builder: the
// deduplicated vocabulary of straight-line PC runs its token streams
// reference. It is shared by every chunk of one stream; entries are
// only ever appended.
type Dict struct {
	Runs []Run
}

// Chunk is the column view of one trace chunk. Concatenating the runs
// (or, for a dictionary-backed chunk, expanding the tokens against the
// dictionary) reproduces exactly the PC sequence a full event decode
// yields.
//
// A chunk comes in one of two shapes:
//
//   - legacy (trace v2/v3): Runs, Taken, Present, and Addrs are set;
//     Dict, Tokens, and BrTaken are nil.
//   - dictionary-backed (trace v4 and the Builder): Dict, Tokens,
//     BrTaken, and Addrs are set; Runs, Taken, and Present are nil.
//     Addrs then holds one entry per memory-class event (including
//     zero addresses), and BrTaken one bit per conditional-branch
//     event.
type Chunk struct {
	// Base is the sequence number of the chunk's first event.
	Base uint64
	// N is the event count.
	N int
	// Runs is the chunk's PC sequence as maximal straight-line runs.
	Runs []Run
	// Dict is the trace-wide run dictionary of a dictionary-backed
	// chunk (nil for legacy chunks). It is shared across chunks and
	// must not be mutated; it only grows, so ids stay stable.
	Dict *Dict
	// Tokens is the chunk's PC sequence as dictionary references;
	// expanding each token Rep times reproduces the Runs view.
	Tokens []Token
	// BrTaken is the dictionary-backed chunk's branch-outcome bitmap:
	// one bit per conditional-branch event, in commit order (bit i set
	// ⇔ the chunk's i-th dynamic conditional branch was taken).
	BrTaken []byte
	// Taken is the branch-outcome bitmap, one bit per event
	// (bit i set ⇔ event i's Taken flag was set).
	Taken []byte
	// Present is the address-present bitmap, one bit per event
	// (bit i set ⇔ event i recorded a nonzero effective address).
	Present []byte
	// Addrs holds the effective addresses of the chunk's memory-class
	// (load/store) events in commit order. In a legacy chunk there is
	// one entry per memory event whose Present bit is set (Present bits
	// on non-memory events — possible only in a hostile trace — only
	// advanced the decoder's delta chain; their values are dropped, and
	// a memory event with a clear Present bit has address 0). In a
	// dictionary-backed chunk there is one entry per memory event,
	// zero addresses included, so a cursor advances once per ri.mems
	// offset with no bitmap test.
	Addrs []uint64
	// Target is the last event's target: the next PC the program
	// executed. Only the Builder sets it; every other target of a
	// dictionary-backed chunk is the next event's PC.
	Target int32
}

// TakenAt reports event i's taken bit.
func (c *Chunk) TakenAt(i int32) bool {
	return c.Taken[i>>3]&(1<<(i&7)) != 0
}

// PresentAt reports event i's address-present bit.
func (c *Chunk) PresentAt(i int32) bool {
	return c.Present[i>>3]&(1<<(i&7)) != 0
}

// Source streams Chunks in commit order. Next returns the next chunk
// and a release function that recycles its buffers; it returns io.EOF
// after the final chunk. Close releases underlying resources and may
// be called at any time, including before EOF.
type Source interface {
	Next() (*Chunk, func(), error)
	Close()
}
