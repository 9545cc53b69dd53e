package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// IndexedReader opens a trace through an io.ReaderAt and exposes its
// footer chunk index and run dictionary, so disjoint chunk ranges can
// be decoded concurrently by shard workers. It performs a few reads up
// front (header, fixed footer tail, dictionary, index payload) and
// validates every CRC; Range, Columns, and ScanRunTokens then serve
// bounds-checked sections of the file. It is the only way to read a
// trace.
type IndexedReader struct {
	ra      io.ReaderAt
	meta    Meta
	chunks  []chunkInfo
	bases   []uint64 // sequence number of each chunk's first event
	total   uint64
	dataEnd int64 // offset one past the last frame (the terminator byte)
	// dict is the footer's run dictionary. Every chunk is decoded
	// against it, so any chunk range can be served without replaying
	// the prefix that grew the dictionary.
	dict *v4Dict
}

// NewIndexedReader parses the header, footer index, and run dictionary
// of a trace of the given size. A trace in a retired format (v1–v3)
// fails with ErrUnsupportedVersion.
func NewIndexedReader(ra io.ReaderAt, size int64) (*IndexedReader, error) {
	meta, dataStart, err := readHeader(io.NewSectionReader(ra, 0, size))
	if err != nil {
		return nil, err
	}
	if size < dataStart+1+tailFixedLen {
		return nil, fmt.Errorf("trace: file size %d too small for a trailer", size)
	}
	fixed := make([]byte, tailFixedLen)
	if _, err := ra.ReadAt(fixed, size-tailFixedLen); err != nil {
		return nil, fmt.Errorf("trace: read footer tail: %w", err)
	}
	if string(fixed[tailLen+4:]) != footerMagic {
		return nil, fmt.Errorf("trace: bad footer magic %q", fixed[tailLen+4:])
	}
	if binary.LittleEndian.Uint32(fixed[tailLen:tailLen+4]) != crc32.ChecksumIEEE(fixed[:tailLen]) {
		return nil, fmt.Errorf("trace: footer tail checksum mismatch")
	}
	indexLen := binary.LittleEndian.Uint64(fixed[0:8])
	total := binary.LittleEndian.Uint64(fixed[8:16])
	count := binary.LittleEndian.Uint64(fixed[16:24])
	dictLen := binary.LittleEndian.Uint64(fixed[24:32])
	// Every index entry takes at least two bytes, so a count the index
	// payload cannot hold is rejected before anything is sized by it.
	if count > maxIndexChunks || count > indexLen/2 {
		return nil, fmt.Errorf("trace: index claims %d chunks in %d bytes (max %d)", count, indexLen, maxIndexChunks)
	}
	if dictLen > uint64(size) {
		return nil, fmt.Errorf("trace: dictionary length %d does not fit the file", dictLen)
	}
	// The index sits just before its CRC and the fixed tail, and the
	// CRC-guarded run dictionary between the terminator byte and the
	// index.
	idxStart := size - tailFixedLen - 4 - int64(indexLen)
	dataEnd := idxStart - 4 - int64(dictLen) - 1
	if indexLen > uint64(size) || dataEnd < dataStart {
		return nil, fmt.Errorf("trace: index length %d does not fit the file", indexLen)
	}
	dbuf := make([]byte, dictLen+4)
	if _, err := ra.ReadAt(dbuf, dataEnd+1); err != nil {
		return nil, fmt.Errorf("trace: read run dictionary: %w", err)
	}
	if binary.LittleEndian.Uint32(dbuf[dictLen:]) != crc32.ChecksumIEEE(dbuf[:dictLen]) {
		return nil, fmt.Errorf("trace: dictionary checksum mismatch")
	}
	dict, err := parseDictPayload(dbuf[:dictLen])
	if err != nil {
		return nil, err
	}
	// The terminator byte ends the data section.
	var term [1]byte
	if _, err := ra.ReadAt(term[:], dataEnd); err != nil {
		return nil, fmt.Errorf("trace: read terminator: %w", err)
	}
	if term[0] != 0 {
		return nil, fmt.Errorf("trace: bad terminator byte %#x before footer", term[0])
	}
	buf := make([]byte, indexLen+4)
	if _, err := ra.ReadAt(buf, idxStart); err != nil {
		return nil, fmt.Errorf("trace: read chunk index: %w", err)
	}
	idx := buf[:indexLen]
	if binary.LittleEndian.Uint32(buf[indexLen:]) != crc32.ChecksumIEEE(idx) {
		return nil, fmt.Errorf("trace: index checksum mismatch")
	}
	pos := 0
	uvarint := func() (uint64, error) {
		u, n := binary.Uvarint(idx[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated index varint at offset %d", pos)
		}
		pos += n
		return u, nil
	}
	gotCount, err := uvarint()
	if err != nil {
		return nil, err
	}
	if gotCount != count {
		return nil, fmt.Errorf("trace: index records %d chunks, footer tail %d", gotCount, count)
	}
	chunks := make([]chunkInfo, count)
	bases := make([]uint64, count)
	prevOff := int64(0)
	var events uint64
	for i := range chunks {
		delta, err := uvarint()
		if err != nil {
			return nil, err
		}
		ev, err := uvarint()
		if err != nil {
			return nil, err
		}
		off := prevOff + int64(delta)
		if off < dataStart || off >= dataEnd {
			return nil, fmt.Errorf("trace: index offset %d for chunk %d outside the data section", off, i)
		}
		if i > 0 && off <= chunks[i-1].offset {
			return nil, fmt.Errorf("trace: index offsets not increasing at chunk %d", i)
		}
		if ev == 0 || ev > maxChunkEvents {
			return nil, fmt.Errorf("trace: index records %d events for chunk %d", ev, i)
		}
		chunks[i] = chunkInfo{offset: off, events: ev}
		bases[i] = events
		events += ev
		prevOff = off
	}
	if pos != len(idx) {
		return nil, fmt.Errorf("trace: %d trailing bytes after chunk index", len(idx)-pos)
	}
	if events != total {
		return nil, fmt.Errorf("trace: index sums to %d events, footer records %d", events, total)
	}
	if count > 0 && chunks[0].offset != dataStart {
		return nil, fmt.Errorf("trace: first chunk at offset %d, data section starts at %d", chunks[0].offset, dataStart)
	}
	if count == 0 && dataEnd != dataStart {
		return nil, fmt.Errorf("trace: %d bytes of data section but no chunks", dataEnd-dataStart)
	}
	return &IndexedReader{
		ra:      ra,
		meta:    meta,
		chunks:  chunks,
		bases:   bases,
		total:   total,
		dataEnd: dataEnd,
		dict:    dict,
	}, nil
}

// Meta returns the header document.
func (ir *IndexedReader) Meta() Meta { return ir.meta }

// Chunks returns the number of chunks in the trace.
func (ir *IndexedReader) Chunks() int { return len(ir.chunks) }

// TotalEvents returns the footer's event count.
func (ir *IndexedReader) TotalEvents() uint64 { return ir.total }

// Base returns the sequence number of chunk i's first event.
func (ir *IndexedReader) Base(i int) uint64 { return ir.bases[i] }

// rangeEnd returns the file offset one past chunk hi-1's frame.
func (ir *IndexedReader) rangeEnd(hi int) int64 {
	if hi < len(ir.chunks) {
		return ir.chunks[hi].offset
	}
	return ir.dataEnd
}

// Range returns a sequential source of bound simulator events over
// chunks [lo, hi), decoding in the caller's goroutine: each chunk is
// column-decoded as Columns decodes it and expanded into a slab by
// sim.AppendEvents.
func (ir *IndexedReader) Range(prog *isa.Program, lo, hi int) *Source {
	if lo < 0 || hi > len(ir.chunks) || lo > hi {
		panic(fmt.Sprintf("trace: Range [%d,%d) outside %d chunks", lo, hi, len(ir.chunks)))
	}
	dec := getDecoder(ir.dict)
	var (
		pool  slabPool
		chunk = lo
	)
	next := func() ([]sim.Event, func(), error) {
		if chunk >= hi {
			return nil, nil, io.EOF
		}
		if err := ir.dict.bindShared(prog); err != nil {
			return nil, nil, err
		}
		ch, err := ir.decodeColumns(context.TODO(), dec, chunk)
		if err != nil {
			return nil, nil, err
		}
		evs := sim.AppendEvents(pool.get(), prog, ch)
		columnSlabs.Put(ch)
		chunk++
		return evs, pool.release(evs), nil
	}
	return &Source{next: next, close: dec.put}
}

// ScanRunTokens decodes only the token stream of chunks [lo, hi),
// reporting the committed stream as repeated straight-line runs:
// run(pc, n, rep) covers rep back-to-back executions of the n-event
// run whose PCs are pc, pc+1, ..., pc+n-1, in commit order. Expanding
// each callback rep times reproduces exactly the PC sequence of the
// events Range expands from the same chunks (adjacent callbacks may
// repeat the same run where a chunk boundary splits a repeat). The
// repeats come straight off the token stream, so a tight loop that
// dominates a phase costs one callback. No columns are decoded and,
// for a split-compressed frame, the taken and address columns are
// never even decompressed. Frames still pass CRC validation and the
// token stream gets the column decoder's structural checks. The
// context is checked once per chunk.
func (ir *IndexedReader) ScanRunTokens(ctx context.Context, prog *isa.Program, lo, hi int, run func(pc, n int32, rep int64)) error {
	if lo < 0 || hi > len(ir.chunks) || lo > hi {
		panic(fmt.Sprintf("trace: ScanRunTokens [%d,%d) outside %d chunks", lo, hi, len(ir.chunks)))
	}
	if lo == hi {
		return nil
	}
	// Binding validates every dictionary run against prog's instruction
	// count, so every reported run lies inside the program.
	if err := ir.dict.bindShared(prog); err != nil {
		return err
	}
	dec := getDecoder(ir.dict)
	defer dec.put()
	for chunk := lo; chunk < hi; chunk++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		f, err := ir.frameAt(chunk, &dec.frame)
		if err != nil {
			return err
		}
		col, err := dec.framePCColumn(f)
		if err != nil {
			return err
		}
		base, n, err := scanChunkTokensV4(col, ir.dict, &dec.sc, run)
		if err != nil {
			return err
		}
		if err := ir.checkChunk(chunk, base, n); err != nil {
			return err
		}
	}
	return nil
}

// frameAt reads chunk c's frame into *buf (grown as needed and reused
// across calls) and validates it: length prefixes, the CRC over the
// stored payload, and exact consumption of the span the index gives
// the frame.
func (ir *IndexedReader) frameAt(c int, buf *[]byte) (frame, error) {
	off := ir.chunks[c].offset
	n := int(ir.rangeEnd(c+1) - off)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := ir.ra.ReadAt(b, off); err != nil {
		return frame{}, fmt.Errorf("trace: chunk %d: read frame: %w", c, err)
	}
	f, err := parseFrameBytes(b)
	if err != nil {
		return frame{}, fmt.Errorf("trace: chunk %d: %w", c, err)
	}
	return f, nil
}

// checkChunk cross-checks a decoded chunk's base sequence number and
// event count against the index.
func (ir *IndexedReader) checkChunk(c int, base uint64, n int) error {
	if base != ir.bases[c] {
		return fmt.Errorf("trace: chunk %d base %d, expected %d", c, base, ir.bases[c])
	}
	if uint64(n) != ir.chunks[c].events {
		return fmt.Errorf("trace: chunk %d decoded %d events, index records %d", c, n, ir.chunks[c].events)
	}
	return nil
}

// parseFrameBytes parses one chunk frame from an in-memory byte span:
// length prefixes, compression kind, CRC over the stored payload, and
// exact consumption of the span.
func parseFrameBytes(buf []byte) (frame, error) {
	pos := 0
	rawLen, pos, err := uvarintAt(buf, pos)
	if err != nil {
		return frame{}, fmt.Errorf("read chunk length: %w", err)
	}
	if rawLen == 0 || rawLen > maxFrameBytes {
		return frame{}, fmt.Errorf("bad chunk raw length %d", rawLen)
	}
	if pos >= len(buf) {
		return frame{}, fmt.Errorf("read compression kind: %w", io.ErrUnexpectedEOF)
	}
	kind := buf[pos]
	pos++
	compLen, pos, err := uvarintAt(buf, pos)
	if err != nil {
		return frame{}, fmt.Errorf("read payload length: %w", err)
	}
	if compLen > maxFrameBytes {
		return frame{}, fmt.Errorf("chunk payload length %d too large", compLen)
	}
	if pos+4+int(compLen) != len(buf) {
		return frame{}, fmt.Errorf("chunk frame spans %d bytes, index records %d", pos+4+int(compLen), len(buf))
	}
	crc := binary.LittleEndian.Uint32(buf[pos:])
	payload := buf[pos+4:]
	if crc != crc32.ChecksumIEEE(payload) {
		return frame{}, fmt.Errorf("chunk checksum mismatch")
	}
	return frame{rawLen: int(rawLen), kind: kind, payload: payload}, nil
}
