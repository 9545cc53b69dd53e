package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// FormatVersion is bumped whenever the on-disk layout changes; it is
// baked into both the header magic and artifact-store fingerprints so
// stale traces read as misses rather than garbage.
//
// Version history:
//
//	1  chunked columnar stream, counts-only footer
//	2  adds a per-chunk offset index to the footer so a reader with
//	   random access (io.ReaderAt) can hand disjoint chunk ranges to
//	   shard workers, and switches the chunk PC and target columns to
//	   sparse encodings (exception bitmaps + deltas for non-sequential
//	   PCs and non-fallthrough targets only) — see appendChunk
//	3  front-loads the PC column inside each chunk (exception bitmap +
//	   deltas before everything else) and compresses it as its own
//	   flate stream (compressionSplit) so a PC-only scan — the phase
//	   analysis BBV pass — decompresses only a few percent of each
//	   chunk's payload
//	4  run-native encoding: a trace-wide dictionary of straight-line
//	   PC runs (grown chunk by chunk, repeated CRC-guarded in the
//	   footer) turns each chunk into a stream of (run-id, repeat)
//	   tokens plus a conditional-branch taken bitmap and a per-static-
//	   site delta-coded address column — see codecv4.go. Requires the
//	   program at write time (NewWriter's prog) so the encoder can
//	   verify the stream is run-representable.
//
// Readers accept every listed version; writers emit the current one
// unless a test pins an older version.
const FormatVersion = 4

// minFormatVersion is the oldest version readers still accept.
const minFormatVersion = 1

// headerMagic returns the header magic for a format version.
func headerMagic(version int) [8]byte {
	return [8]byte{'B', 'P', 'T', 'R', 'A', 'C', 'E', '0' + byte(version)}
}

// footerMagic returns the footer magic for a format version.
func footerMagic(version int) [8]byte {
	return [8]byte{'B', 'P', 'T', 'R', 'E', 'N', 'D', '0' + byte(version)}
}

// Compression kinds recorded per chunk frame.
const (
	compressionNone  = 0
	compressionFlate = 1
	// compressionSplit compresses the chunk as two independent flate
	// streams cut at the end of the v3 PC column, so a PC-only scan
	// inflates just the first. (Go's inflater decodes a whole 32KiB
	// window before returning any byte, so a partial read of a single
	// stream cannot skip work — only a separate stream can.)
	compressionSplit = 2
)

// flateWriters recycles chunk compressors across Writers: building
// one allocates about 1 MB, more than a short trace's whole payload.
var flateWriters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return fw
}}

// maxFrameBytes caps the compressed-frame allocation a corrupted
// length prefix can request.
const maxFrameBytes = 64 << 20

// maxIndexChunks caps the chunk-index allocation a corrupted footer
// can request (a real trace at the default chunk size would need
// ~275G events to hit it).
const maxIndexChunks = 1 << 22

// v2 footer geometry. After the terminator byte the v2 trailer is:
//
//	index payload:
//	    uvarint chunkCount
//	    chunkCount × { uvarint offsetDelta, uvarint events }
//	        offsetDelta: frame-start file offset, delta-coded against
//	        the previous frame start (first entry is absolute)
//	uint32 LE   CRC-32 (IEEE) of the index payload
//	fixed tail (tailLen bytes):
//	    uint64 LE indexLen     length of the index payload in bytes
//	    uint64 LE totalEvents
//	    uint64 LE chunkCount
//	uint32 LE   CRC-32 (IEEE) of the fixed tail
//	[8]byte     footer magic "BPTREND2"
//
// The fixed-size suffix (tail + tailCRC + magic = tailFixedLen bytes)
// lets an io.ReaderAt locate the index from the end of the file, while
// a sequential reader parses the same trailer forward.
const (
	tailLen      = 24
	tailFixedLen = tailLen + 4 + 8
)

// Meta is the trace header document: enough identity to rebind the
// stream to the program that produced it, and to reject a replay
// against the wrong binary.
type Meta struct {
	// Program is the program name the trace was recorded from.
	Program string `json:"program"`
	// Fingerprint identifies the exact compiled artifact + input
	// configuration (see runner.Fingerprint); replaying against a
	// program with a different fingerprint is refused.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Size is the input-size label the run was bound with.
	Size string `json:"size,omitempty"`
	// ChunkEvents is the writer's chunk capacity.
	ChunkEvents int `json:"chunk_events"`
	// Compression names the per-chunk codec ("flate" or "none").
	Compression string `json:"compression"`
}

// chunkInfo is one entry of the v2 footer index: where a chunk's frame
// starts and how many events it decodes to. Base sequence numbers are
// recovered by prefix-summing the event counts.
type chunkInfo struct {
	offset int64
	events uint64
}

// Writer encodes a committed-instruction stream to w. It implements
// sim.BatchObserver, so recording a trace is one AddBatchObserver call
// on the machine: events accumulate into chunks which are encoded,
// compressed, CRC-stamped, and framed as they fill. Close flushes the
// final partial chunk and the footer; it does not close w.
//
// A v4 Writer encodes runstream chunks (WriteChunk). Fed events, it
// builds them with its own runstream.Builder; a recording that also
// characterizes the stream shares one Builder between the analysis and
// WriteChunk instead, so runs are built once. A Writer takes either
// events or chunks, not both.
//
// I/O, encoding, and representability errors are sticky: the first
// one is retained, further input is dropped, and Close returns it.
type Writer struct {
	w       io.Writer
	meta    Meta
	version int
	flate   bool
	recs    []Record           // pending chunk (formats v1–v3)
	b       *runstream.Builder // v4 event input, created on first use
	base    uint64
	total   uint64
	off     int64 // bytes written so far; next frame starts here
	index   []chunkInfo
	raw     []byte
	comp    bytes.Buffer
	split   []byte
	fw      *flate.Writer
	v4      *v4Writer // run-native encoder state (format v4 only)
	err     error
	header  bool
	closed  bool
}

// NewWriter creates a trace writer. Zero-valued meta fields are
// defaulted (ChunkEvents, Compression); the header is written lazily
// with the first chunk so an aborted recording can leave nothing
// behind.
//
// prog is the program the stream is recorded from; the v4 run-native
// encoder needs it to build the run dictionary and verify the stream
// is run-representable. A nil prog falls back to format v3, which
// encodes any event stream — synthetic test streams whose targets are
// not the next committed PC, for example, have no v4 form.
func NewWriter(w io.Writer, meta Meta, prog *isa.Program) *Writer {
	if prog == nil {
		return newWriterVersion(w, meta, 3)
	}
	return NewWriterVersion(w, meta, prog, FormatVersion)
}

// NewWriterVersion pins the output format version — the trace CLI's
// -trace-version flag and the cross-version compatibility tests use
// it. Version 4 requires prog (the run-native encoding cannot be
// produced without the program text); earlier versions ignore it.
func NewWriterVersion(w io.Writer, meta Meta, prog *isa.Program, version int) *Writer {
	if version < minFormatVersion || version > FormatVersion {
		panic(fmt.Sprintf("trace: unsupported format version %d", version))
	}
	tw := newWriterVersion(w, meta, version)
	if version >= 4 {
		if prog == nil {
			panic("trace: format v4 requires the program")
		}
		tw.v4 = newV4Writer(prog)
	}
	return tw
}

// newWriterVersion pins the output format version without the v4
// encoder; tests use it to produce v1–v3 traces for back-compat
// coverage.
func newWriterVersion(w io.Writer, meta Meta, version int) *Writer {
	if meta.ChunkEvents <= 0 {
		meta.ChunkEvents = ChunkEvents
	}
	if meta.Compression == "" {
		meta.Compression = "flate"
	}
	tw := &Writer{
		w:       w,
		meta:    meta,
		version: version,
		flate:   meta.Compression == "flate",
	}
	if version < 4 {
		tw.recs = make([]Record, 0, meta.ChunkEvents)
	}
	return tw
}

var _ sim.BatchObserver = (*Writer)(nil)

// ObserveBatch implements sim.BatchObserver: the slab is consumed
// immediately (the simulator recycles it the moment this returns) and
// full chunks are flushed inline.
func (tw *Writer) ObserveBatch(evs []sim.Event) {
	if tw.err != nil || tw.closed {
		return
	}
	if tw.v4 != nil {
		if tw.b == nil {
			tw.b = runstream.NewBuilder(tw.v4.prog, tw.meta.ChunkEvents, tw.WriteChunk)
		}
		tw.b.ObserveBatch(evs)
		if err := tw.b.Err(); err != nil && tw.err == nil {
			tw.err = fmt.Errorf("trace: %w", err)
		}
		return
	}
	for i := range evs {
		tw.recs = append(tw.recs, Record{
			PC:     evs[i].PC,
			Target: evs[i].Target,
			Addr:   evs[i].Addr,
			Taken:  evs[i].Taken,
		})
		if len(tw.recs) == cap(tw.recs) {
			tw.flush()
		}
	}
}

// Err returns the writer's sticky error.
func (tw *Writer) Err() error { return tw.err }

// Events returns how many events have been accepted so far.
func (tw *Writer) Events() uint64 {
	if tw.b != nil {
		return tw.b.Events()
	}
	return tw.total + uint64(len(tw.recs))
}

// WriteChunk encodes one dictionary-backed chunk as the next v4 chunk
// frame. Chunks must come in commit order from a single
// runstream.Builder over the Writer's program, whose chunk size should
// match Meta.ChunkEvents; ch is not retained.
func (tw *Writer) WriteChunk(ch *runstream.Chunk) {
	if tw.err != nil || tw.closed {
		return
	}
	if tw.v4 == nil {
		tw.err = fmt.Errorf("trace: chunk input needs a format v4 writer")
		return
	}
	if ch.Base != tw.base {
		tw.err = fmt.Errorf("trace: chunk starts at event %d, writer is at %d", ch.Base, tw.base)
		return
	}
	tw.writeHeader()
	if tw.err != nil {
		return
	}
	var cut int
	var err error
	tw.raw, cut, err = tw.v4.appendChunk(tw.raw[:0], tw.base, ch)
	if err != nil {
		tw.err = err
		return
	}
	tw.writeFrame(cut, ch.N)
}

func (tw *Writer) writeHeader() {
	if tw.header {
		return
	}
	tw.header = true
	meta, err := json.Marshal(tw.meta)
	if err != nil {
		tw.err = fmt.Errorf("trace: encode meta: %w", err)
		return
	}
	var buf []byte
	magic := headerMagic(tw.version)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(meta))
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: write header: %w", err)
		return
	}
	tw.off += int64(len(buf))
}

// flush encodes, compresses, and frames the pending chunk.
func (tw *Writer) flush() {
	if tw.b != nil {
		tw.b.Flush()
		return
	}
	if tw.err != nil || len(tw.recs) == 0 {
		return
	}
	tw.writeHeader()
	if tw.err != nil {
		return
	}
	tw.raw = appendChunk(tw.raw[:0], tw.base, tw.recs, tw.version)
	tw.writeFrame(0, len(tw.recs))
	tw.recs = tw.recs[:0]
}

// writeFrame compresses tw.raw — as two streams split at cut for v4,
// or at the PC column's end for v3 — and writes it as the frame of a
// chunk of n events.
func (tw *Writer) writeFrame(cut, n int) {
	payload := tw.raw
	kind := byte(compressionNone)
	if tw.flate {
		tw.comp.Reset()
		if tw.fw == nil {
			tw.fw = flateWriters.Get().(*flate.Writer)
		}
		tw.fw.Reset(&tw.comp)
		if tw.version == 3 {
			cut, _ = pcColumnEnd(tw.raw) // 0 (whole-chunk stream) if unparseable
		}
		if cut > 0 && cut < len(tw.raw) {
			// Two streams: [0,cut) is the PC column, [cut,len) the rest.
			len1 := -1
			if _, err := tw.fw.Write(tw.raw[:cut]); err == nil && tw.fw.Close() == nil {
				len1 = tw.comp.Len()
				tw.fw.Reset(&tw.comp)
				if _, err := tw.fw.Write(tw.raw[cut:]); err != nil || tw.fw.Close() != nil {
					len1 = -1
				}
			}
			if len1 >= 0 {
				tw.split = binary.AppendUvarint(tw.split[:0], uint64(cut))
				tw.split = binary.AppendUvarint(tw.split, uint64(len1))
				tw.split = append(tw.split, tw.comp.Bytes()...)
				if len(tw.split) < len(tw.raw) {
					payload = tw.split
					kind = compressionSplit
				}
			}
		} else if _, err := tw.fw.Write(tw.raw); err == nil {
			if err := tw.fw.Close(); err == nil && tw.comp.Len() < len(tw.raw) {
				payload = tw.comp.Bytes()
				kind = compressionFlate
			}
		}
	}
	var frame []byte
	frame = binary.AppendUvarint(frame, uint64(len(tw.raw)))
	frame = append(frame, kind)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := tw.w.Write(frame); err != nil {
		tw.err = fmt.Errorf("trace: write frame: %w", err)
		return
	}
	if _, err := tw.w.Write(payload); err != nil {
		tw.err = fmt.Errorf("trace: write chunk: %w", err)
		return
	}
	tw.index = append(tw.index, chunkInfo{offset: tw.off, events: uint64(n)})
	tw.off += int64(len(frame)) + int64(len(payload))
	tw.base += uint64(n)
	tw.total = tw.base
}

// Close flushes the final partial chunk and writes the terminator and
// footer. A v2 footer carries the CRC-protected per-chunk offset index
// plus a fixed-size tail so both sequential readers and io.ReaderAt
// consumers can validate it; a v1 footer carries counts only. Close
// returns the writer's sticky error, and does not close the underlying
// writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	tw.flush()
	tw.closed = true
	if tw.fw != nil {
		flateWriters.Put(tw.fw)
		tw.fw = nil
	}
	tw.writeHeader() // empty trace still gets a valid header
	if tw.err != nil {
		return tw.err
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, 0) // terminator: rawLen 0
	magic := footerMagic(tw.version)
	if tw.version == 1 {
		var counts []byte
		counts = binary.AppendUvarint(counts, tw.total)
		counts = binary.AppendUvarint(counts, uint64(len(tw.index)))
		buf = append(buf, counts...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(counts))
		buf = append(buf, magic[:]...)
	} else {
		dictLen := 0
		if tw.version >= 4 {
			// The full run dictionary precedes the index so a random-
			// access reader can decode any chunk without replaying the
			// prefix that grew it.
			dict := appendDictPayload(nil, tw.v4.dict.runs)
			dictLen = len(dict)
			buf = append(buf, dict...)
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(dict))
		}
		var idx []byte
		idx = binary.AppendUvarint(idx, uint64(len(tw.index)))
		prev := int64(0)
		for _, ci := range tw.index {
			idx = binary.AppendUvarint(idx, uint64(ci.offset-prev))
			idx = binary.AppendUvarint(idx, ci.events)
			prev = ci.offset
		}
		buf = append(buf, idx...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(idx))
		if tw.version >= 4 {
			var tail [tailLenV4]byte
			binary.LittleEndian.PutUint64(tail[0:8], uint64(len(idx)))
			binary.LittleEndian.PutUint64(tail[8:16], tw.total)
			binary.LittleEndian.PutUint64(tail[16:24], uint64(len(tw.index)))
			binary.LittleEndian.PutUint64(tail[24:32], uint64(dictLen))
			buf = append(buf, tail[:]...)
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(tail[:]))
		} else {
			var tail [tailLen]byte
			binary.LittleEndian.PutUint64(tail[0:8], uint64(len(idx)))
			binary.LittleEndian.PutUint64(tail[8:16], tw.total)
			binary.LittleEndian.PutUint64(tail[16:24], uint64(len(tw.index)))
			buf = append(buf, tail[:]...)
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(tail[:]))
		}
		buf = append(buf, magic[:]...)
	}
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: write footer: %w", err)
	}
	return tw.err
}

// frame is one undecoded chunk as read from the stream.
type frame struct {
	rawLen  int
	kind    byte
	payload []byte
}

// Reader decodes a trace stream. NewReader consumes and validates the
// header; chunks are then read with nextFrame until the footer, whose
// counts — and, for v2, chunk offsets — are cross-checked against what
// was actually decoded.
type Reader struct {
	br           *bufio.Reader
	meta         Meta
	version      int
	chunks       uint64
	off          int64 // stream offset of the next frame
	offsets      []int64
	payloadBuf   []byte
	footerEvents uint64
	done         bool
	// dict is the v4 run dictionary, grown in commit order as chunks
	// are decoded and cross-checked against the footer's copy. Decode
	// order is the dictionary's consistency invariant, which is why
	// ParallelEvents clamps v4 to one decode worker.
	dict        *v4Dict
	footerDict  []dictRun // the footer's dictionary copy, checked at EOF
	dictPayload int       // bytes of the footer dictionary payload (v4)
}

// NewReader wraps r and reads the trace header. Both current and v1
// traces are accepted; Version reports which was found.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read magic: %w", err)
	}
	version := 0
	for v := minFormatVersion; v <= FormatVersion; v++ {
		if magic == headerMagic(v) {
			version = v
			break
		}
	}
	if version == 0 {
		return nil, fmt.Errorf("trace: bad magic %q (want %q..%q)",
			magic[:], headerMagic(minFormatVersion), headerMagic(FormatVersion))
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read meta length: %w", err)
	}
	if metaLen > 1<<20 {
		return nil, fmt.Errorf("trace: meta length %d too large", metaLen)
	}
	metaBuf := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaBuf); err != nil {
		return nil, fmt.Errorf("trace: read meta: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("trace: read meta crc: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(metaBuf) {
		return nil, fmt.Errorf("trace: meta checksum mismatch")
	}
	var meta Meta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		return nil, fmt.Errorf("trace: decode meta: %w", err)
	}
	off := int64(8) + int64(uvarintLen(metaLen)) + int64(metaLen) + 4
	tr := &Reader{br: br, meta: meta, version: version, off: off}
	if version >= 4 {
		tr.dict = newV4Dict()
	}
	return tr, nil
}

// uvarintLen returns the encoded size of u.
func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// Meta returns the header document.
func (tr *Reader) Meta() Meta { return tr.meta }

// Version returns the format version found in the header.
func (tr *Reader) Version() int { return tr.version }

// TotalEvents returns the footer's recorded event count; it is valid
// once the stream has been fully read (the sources return io.EOF).
func (tr *Reader) TotalEvents() uint64 { return tr.footerEvents }

// nextFrame reads the next chunk frame, or io.EOF after validating the
// terminator and footer. If reuse is true the payload is read into a
// buffer owned by the Reader and is only valid until the next call —
// the sequential source uses this to avoid a per-chunk allocation,
// while the parallel source keeps distinct payloads in flight.
func (tr *Reader) nextFrame(reuse bool) (frame, error) {
	if tr.done {
		return frame{}, io.EOF
	}
	frameOff := tr.off
	rawLen, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return frame{}, fmt.Errorf("trace: read chunk length (truncated trace?): %w", err)
	}
	if rawLen == 0 {
		return frame{}, tr.readFooter()
	}
	if rawLen > maxFrameBytes {
		return frame{}, fmt.Errorf("trace: chunk raw length %d too large", rawLen)
	}
	kind, err := tr.br.ReadByte()
	if err != nil {
		return frame{}, fmt.Errorf("trace: read compression kind: %w", err)
	}
	compLen, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return frame{}, fmt.Errorf("trace: read payload length: %w", err)
	}
	if compLen > maxFrameBytes {
		return frame{}, fmt.Errorf("trace: chunk payload length %d too large", compLen)
	}
	var crc [4]byte
	if _, err := io.ReadFull(tr.br, crc[:]); err != nil {
		return frame{}, fmt.Errorf("trace: read chunk crc: %w", err)
	}
	var payload []byte
	if reuse {
		if cap(tr.payloadBuf) < int(compLen) {
			tr.payloadBuf = make([]byte, compLen)
		}
		payload = tr.payloadBuf[:compLen]
	} else {
		payload = make([]byte, compLen)
	}
	if _, err := io.ReadFull(tr.br, payload); err != nil {
		return frame{}, fmt.Errorf("trace: read chunk payload: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload) {
		return frame{}, fmt.Errorf("trace: chunk %d checksum mismatch", tr.chunks)
	}
	tr.chunks++
	tr.offsets = append(tr.offsets, frameOff)
	tr.off += int64(uvarintLen(rawLen)) + 1 + int64(uvarintLen(compLen)) + 4 + int64(compLen)
	return frame{rawLen: int(rawLen), kind: kind, payload: payload}, nil
}

// readFooter validates the trailer and returns io.EOF on success.
func (tr *Reader) readFooter() error {
	if tr.version == 1 {
		return tr.readFooterV1()
	}
	if tr.version >= 4 {
		if err := tr.readFooterDict(); err != nil {
			return err
		}
	}
	return tr.readFooterV2()
}

// readFooterDict parses the v4 footer's run-dictionary payload and
// cross-checks it against the dictionary the reader grew while
// decoding chunks (skipped when no chunk was decoded through this
// reader — frame-level consumers validate structure only).
func (tr *Reader) readFooterDict() error {
	var dictBuf []byte
	count, err := tr.readCountedUvarint(&dictBuf)
	if err != nil {
		return fmt.Errorf("trace: read footer dictionary count: %w", err)
	}
	if count > maxDictRuns {
		return fmt.Errorf("trace: dictionary claims %d runs (max %d)", count, maxDictRuns)
	}
	footer := newV4Dict()
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		u, err := tr.readCountedUvarint(&dictBuf)
		if err != nil {
			return fmt.Errorf("trace: read footer dictionary entry %d: %w", i, err)
		}
		pc := prev + unzigzag(u)
		n, err := tr.readCountedUvarint(&dictBuf)
		if err != nil {
			return fmt.Errorf("trace: read footer dictionary entry %d: %w", i, err)
		}
		if pc < 0 || pc >= 1<<31 {
			return fmt.Errorf("trace: dictionary run PC %d out of range", pc)
		}
		if err := footer.add(int32(pc), int64(n)); err != nil {
			return err
		}
		prev = pc
	}
	var crc [4]byte
	if _, err := io.ReadFull(tr.br, crc[:]); err != nil {
		return fmt.Errorf("trace: read footer dictionary crc: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(dictBuf) {
		return fmt.Errorf("trace: footer dictionary checksum mismatch")
	}
	tr.dictPayload = len(dictBuf)
	tr.footerDict = footer.runs
	return nil
}

// verifyFooterDict cross-checks the dictionary the chunks grew against
// the footer's copy. It runs at EOF — not when the footer is parsed —
// because a parallel consumer's reader goroutine reaches the footer
// while chunks are still being decoded; the EOF delivery orders after
// the last chunk's decode, so the grown dictionary is complete (and
// safe to read) exactly there.
func (tr *Reader) verifyFooterDict() error {
	if tr.version < 4 {
		return nil
	}
	if len(tr.dict.runs) != len(tr.footerDict) {
		return fmt.Errorf("trace: footer dictionary has %d runs, chunks defined %d", len(tr.footerDict), len(tr.dict.runs))
	}
	for i, r := range tr.footerDict {
		if tr.dict.runs[i] != r {
			return fmt.Errorf("trace: footer dictionary run %d disagrees with chunk stream", i)
		}
	}
	return nil
}

// readFooterV1 parses the counts-only v1 trailer.
func (tr *Reader) readFooterV1() error {
	countsBuf := make([]byte, 0, 2*binary.MaxVarintLen64)
	total, err := tr.readCountedUvarint(&countsBuf)
	if err != nil {
		return fmt.Errorf("trace: read footer events: %w", err)
	}
	chunks, err := tr.readCountedUvarint(&countsBuf)
	if err != nil {
		return fmt.Errorf("trace: read footer chunks: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(tr.br, crc[:]); err != nil {
		return fmt.Errorf("trace: read footer crc: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(countsBuf) {
		return fmt.Errorf("trace: footer checksum mismatch")
	}
	var magic [8]byte
	if _, err := io.ReadFull(tr.br, magic[:]); err != nil {
		return fmt.Errorf("trace: read footer magic: %w", err)
	}
	if magic != footerMagic(1) {
		return fmt.Errorf("trace: bad footer magic %q", magic[:])
	}
	if chunks != tr.chunks {
		return fmt.Errorf("trace: footer records %d chunks, decoded %d", chunks, tr.chunks)
	}
	tr.footerEvents = total
	tr.done = true
	return io.EOF
}

// readFooterV2 parses the indexed v2 trailer forward, cross-checking
// the chunk offsets it recorded while streaming against the index.
func (tr *Reader) readFooterV2() error {
	var idxBuf []byte
	count, err := tr.readCountedUvarint(&idxBuf)
	if err != nil {
		return fmt.Errorf("trace: read index chunk count: %w", err)
	}
	if count > maxIndexChunks {
		return fmt.Errorf("trace: index claims %d chunks (max %d)", count, maxIndexChunks)
	}
	if count != tr.chunks {
		return fmt.Errorf("trace: index records %d chunks, decoded %d", count, tr.chunks)
	}
	prev := int64(0)
	var events uint64
	for i := uint64(0); i < count; i++ {
		delta, err := tr.readCountedUvarint(&idxBuf)
		if err != nil {
			return fmt.Errorf("trace: read index entry %d: %w", i, err)
		}
		ev, err := tr.readCountedUvarint(&idxBuf)
		if err != nil {
			return fmt.Errorf("trace: read index entry %d: %w", i, err)
		}
		off := prev + int64(delta)
		if off != tr.offsets[i] {
			return fmt.Errorf("trace: index offset %d for chunk %d, frame was at %d", off, i, tr.offsets[i])
		}
		prev = off
		events += ev
	}
	var crc [4]byte
	if _, err := io.ReadFull(tr.br, crc[:]); err != nil {
		return fmt.Errorf("trace: read index crc: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(idxBuf) {
		return fmt.Errorf("trace: index checksum mismatch")
	}
	tl := tailLen
	if tr.version >= 4 {
		tl = tailLenV4 // v4 appends the dictionary payload length
	}
	tail := make([]byte, tl)
	if _, err := io.ReadFull(tr.br, tail); err != nil {
		return fmt.Errorf("trace: read footer tail: %w", err)
	}
	var tailCRC [4]byte
	if _, err := io.ReadFull(tr.br, tailCRC[:]); err != nil {
		return fmt.Errorf("trace: read footer tail crc: %w", err)
	}
	if binary.LittleEndian.Uint32(tailCRC[:]) != crc32.ChecksumIEEE(tail) {
		return fmt.Errorf("trace: footer tail checksum mismatch")
	}
	var magic [8]byte
	if _, err := io.ReadFull(tr.br, magic[:]); err != nil {
		return fmt.Errorf("trace: read footer magic: %w", err)
	}
	if magic != footerMagic(tr.version) {
		return fmt.Errorf("trace: bad footer magic %q", magic[:])
	}
	indexLen := binary.LittleEndian.Uint64(tail[0:8])
	total := binary.LittleEndian.Uint64(tail[8:16])
	tailChunks := binary.LittleEndian.Uint64(tail[16:24])
	if indexLen != uint64(len(idxBuf)) {
		return fmt.Errorf("trace: footer tail records index length %d, parsed %d", indexLen, len(idxBuf))
	}
	if tr.version >= 4 {
		if dictLen := binary.LittleEndian.Uint64(tail[24:32]); dictLen != uint64(tr.dictPayload) {
			return fmt.Errorf("trace: footer tail records dictionary length %d, parsed %d", dictLen, tr.dictPayload)
		}
	}
	if tailChunks != tr.chunks {
		return fmt.Errorf("trace: footer records %d chunks, decoded %d", tailChunks, tr.chunks)
	}
	if events != total {
		return fmt.Errorf("trace: index sums to %d events, footer records %d", events, total)
	}
	tr.footerEvents = total
	tr.done = true
	return io.EOF
}

// readCountedUvarint reads a uvarint while appending its raw bytes to
// buf (for the footer CRC).
func (tr *Reader) readCountedUvarint(buf *[]byte) (uint64, error) {
	var u uint64
	for shift := 0; ; shift += 7 {
		b, err := tr.br.ReadByte()
		if err != nil {
			return 0, err
		}
		*buf = append(*buf, b)
		if shift >= 64 {
			return 0, fmt.Errorf("uvarint overflow")
		}
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, nil
		}
	}
}
