package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
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
// stale traces read as misses rather than garbage. Format 4 is the
// run-native encoding described in codecv4.go; files in the retired
// formats 1–3 fail with ErrUnsupportedVersion and must be re-recorded.
const FormatVersion = 4

// Header and footer magics of the current format; the final byte is
// the format version.
const (
	headerMagic = "BPTRACE4"
	footerMagic = "BPTREND4"
)

// ErrUnsupportedVersion reports a trace written in a format this
// package no longer reads (formats 1–3). Re-record the trace.
var ErrUnsupportedVersion = errors.New("trace: unsupported format version")

// Compression kinds recorded per chunk frame.
const (
	compressionNone  = 0
	compressionFlate = 1
	// compressionSplit compresses the chunk as two independent flate
	// streams cut at the end of the token stream, so a run scan
	// (ScanRunTokens) inflates just the first. (Go's inflater decodes a whole 32KiB
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
	// Compression names the chunk codec. The Writer always records
	// "flate"; a chunk flate does not shrink is framed raw (frame kind
	// 0), which every reader decodes.
	Compression string `json:"compression"`
}

// chunkInfo is one entry of the footer index: where a chunk's frame
// starts and how many events it decodes to. Base sequence numbers are
// recovered by prefix-summing the event counts.
type chunkInfo struct {
	offset int64
	events uint64
}

// Writer encodes a committed-instruction stream to w: chunks are
// encoded, compressed, CRC-stamped, and framed as they arrive. Close
// flushes the final partial chunk and the footer; it does not close w.
//
// The Writer encodes runstream chunks (WriteChunk). A recording hands
// it the chunks the machine's interpreter builds
// (sim.Machine.SetChunkSink), shared with a live analysis when the run
// is also characterized, so runs are built once. It also implements
// sim.BatchObserver for event slabs, which it turns into chunks with
// its own sim.Builder. A Writer takes either events or chunks, not
// both.
//
// I/O, encoding, and representability errors are sticky: the first
// one is retained, further input is dropped, and Close returns it.
type Writer struct {
	w      io.Writer
	meta   Meta
	b      *sim.Builder // event input, created on first use
	base   uint64       // events framed so far; next chunk's base
	off    int64        // bytes written so far; next frame starts here
	index  []chunkInfo
	raw    []byte
	comp   bytes.Buffer
	split  []byte
	fw     *flate.Writer
	enc    *v4Writer
	err    error
	header bool
	closed bool
}

// NewWriter creates a trace writer. Zero-valued meta fields are
// defaulted (ChunkEvents) and Compression is always "flate"; the header is written lazily
// with the first chunk so an aborted recording can leave nothing
// behind.
//
// prog is the program the stream is recorded from; the run-native
// encoder needs it to build the run dictionary and verify the stream
// is run-representable. A nil prog panics.
func NewWriter(w io.Writer, meta Meta, prog *isa.Program) *Writer {
	if prog == nil {
		panic("trace: NewWriter requires the program")
	}
	if meta.ChunkEvents <= 0 {
		meta.ChunkEvents = ChunkEvents
	}
	meta.Compression = "flate"
	return &Writer{
		w:    w,
		meta: meta,
		enc:  newV4Writer(prog),
	}
}

var _ sim.BatchObserver = (*Writer)(nil)

// ObserveBatch implements sim.BatchObserver: the slab is consumed
// immediately (the simulator recycles it the moment this returns) and
// full chunks are flushed inline.
func (tw *Writer) ObserveBatch(evs []sim.Event) {
	if tw.err != nil || tw.closed {
		return
	}
	if tw.b == nil {
		tw.b = sim.NewBuilder(tw.enc.prog, tw.meta.ChunkEvents, tw.WriteChunk)
	}
	tw.b.ObserveBatch(evs)
	if err := tw.b.Err(); err != nil && tw.err == nil {
		tw.err = fmt.Errorf("trace: %w", err)
	}
}

// Err returns the writer's sticky error.
func (tw *Writer) Err() error { return tw.err }

// Events returns how many events have been accepted so far.
func (tw *Writer) Events() uint64 {
	if tw.b != nil {
		return tw.b.Events()
	}
	return tw.base
}

// WriteChunk encodes one dictionary-backed chunk as the next chunk
// frame. Chunks must come in commit order from one chunk sink or
// sim.Builder over the Writer's program, whose chunk size should
// match Meta.ChunkEvents; ch is not retained.
func (tw *Writer) WriteChunk(ch *runstream.Chunk) {
	if tw.err != nil || tw.closed {
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
	tw.raw, cut, err = tw.enc.appendChunk(tw.raw[:0], tw.base, ch)
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
	buf = append(buf, headerMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(meta))
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: write header: %w", err)
		return
	}
	tw.off += int64(len(buf))
}

// writeFrame compresses tw.raw — as two streams split at cut when
// that wins — and writes it as the frame of a chunk of n events. A
// chunk compression does not shrink is framed raw.
func (tw *Writer) writeFrame(cut, n int) {
	payload := tw.raw
	kind := byte(compressionNone)
	tw.comp.Reset()
	if tw.fw == nil {
		tw.fw = flateWriters.Get().(*flate.Writer)
	}
	tw.fw.Reset(&tw.comp)
	if cut > 0 && cut < len(tw.raw) {
		// Two streams: [0,cut) is the token stream, [cut,len) the
		// taken and address columns.
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
}

// Close flushes the final partial chunk and writes the terminator and
// the footer (run dictionary, chunk index, fixed tail; see codecv4.go).
// It returns the writer's sticky error, and does not close the
// underlying writer.
func (tw *Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	if tw.b != nil {
		tw.b.Flush()
	}
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
	// The full run dictionary precedes the index so a random-access
	// reader can decode any chunk without replaying the prefix that
	// grew it.
	dict := appendDictPayload(nil, tw.enc.dict.runs)
	buf = append(buf, dict...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(dict))
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
	var tail [tailLen]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(len(idx)))
	binary.LittleEndian.PutUint64(tail[8:16], tw.base)
	binary.LittleEndian.PutUint64(tail[16:24], uint64(len(tw.index)))
	binary.LittleEndian.PutUint64(tail[24:32], uint64(len(dict)))
	buf = append(buf, tail[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(tail[:]))
	buf = append(buf, footerMagic...)
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: write footer: %w", err)
	}
	return tw.err
}

// frame is one undecoded chunk as read from the file.
type frame struct {
	rawLen  int
	kind    byte
	payload []byte
}

// readHeader reads and validates the trace header from r, returning
// the header document and the header's length in bytes (the offset of
// the first chunk frame). A file in a retired format fails with
// ErrUnsupportedVersion.
func readHeader(r io.Reader) (Meta, int64, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read magic: %w", err)
	}
	if string(magic[:]) != headerMagic {
		if string(magic[:7]) == headerMagic[:7] && magic[7] >= '1' && magic[7] <= '3' {
			return Meta{}, 0, fmt.Errorf("%w: file is format v%c, this build reads only v%d; re-record the trace",
				ErrUnsupportedVersion, magic[7], FormatVersion)
		}
		return Meta{}, 0, fmt.Errorf("trace: bad magic %q (want %q)", magic[:], headerMagic)
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read meta length: %w", err)
	}
	if metaLen > 1<<20 {
		return Meta{}, 0, fmt.Errorf("trace: meta length %d too large", metaLen)
	}
	metaBuf := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaBuf); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read meta: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: read meta crc: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(metaBuf) {
		return Meta{}, 0, fmt.Errorf("trace: meta checksum mismatch")
	}
	var meta Meta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		return Meta{}, 0, fmt.Errorf("trace: decode meta: %w", err)
	}
	return meta, int64(len(magic)) + int64(uvarintLen(metaLen)) + int64(metaLen) + 4, nil
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
