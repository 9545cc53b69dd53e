// Package trace is the durable form of the simulator's
// committed-instruction event stream: the same record-once /
// analyze-many discipline ATOM gave the paper, persisted to disk. A
// Writer rides the sim.BatchObserver slab path and encodes the stream
// run-natively (a trace-wide dictionary of straight-line PC runs,
// per-chunk (run-id, repeat) tokens, a conditional-branch taken bitmap,
// and per-site delta-coded addresses; see codecv4.go) into
// self-contained chunks with per-chunk compression and CRC-protected
// length-prefixed framing. An IndexedReader opens a trace through the
// footer's chunk index and run dictionary and serves any chunk range —
// as bound simulator events (Range), as run-native column chunks
// decoded by a worker pool (Columns), or as bare run tokens
// (ScanRunTokens) — so any consumer (loadchar, simpoint, cache, bpred,
// pipeline) can replay the run without re-simulating it.
package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// ChunkEvents is the default number of events per chunk. A chunk is
// the unit of compression, CRC protection, and parallel decode; 16Ki
// events keep the decoded event slab (~640KB) inside the L2 cache the
// decode and analysis passes re-stream it through, while still
// amortizing per-chunk framing overhead.
const ChunkEvents = 1 << 14

// maxChunkEvents caps the decoded-record allocation a chunk header can
// request, so a corrupted or hostile count cannot trigger a huge
// allocation before the payload bounds checks reject it.
const maxChunkEvents = 1 << 22

// zigzag folds signed deltas into unsigned varint space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// errTruncatedVarint is the shared truncation error for the inlined
// varint fast path; the offset detail is folded in by the caller's
// wrapper when decoding fails.
var errTruncatedVarint = fmt.Errorf("trace: truncated or overlong varint in chunk")

// uvarintAt decodes a uvarint from data at pos, returning the value
// and the new position. It is the slow path behind the inlined
// single-byte fast path in the decode loops.
func uvarintAt(data []byte, pos int) (uint64, int, error) {
	u, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, pos, errTruncatedVarint
	}
	return u, pos + n, nil
}

// decoder owns the reusable buffers of one decode stream: the flate
// reader (reset per frame instead of reallocating its window), the
// decompression buffer, a bytes.Reader over the frame payload, and the
// per-chunk address-chain scratch. dict is the reader's footer
// dictionary, shared read-only. Each Range source, Columns worker, and
// token scan owns exactly one.
type decoder struct {
	br   bytes.Reader
	fr   io.ReadCloser
	raw  []byte
	dict *v4Dict
	sc   v4Scratch
}

// frameBytes returns the decompressed chunk payload of f, valid until
// the next call on this decoder.
func (d *decoder) frameBytes(f frame) ([]byte, error) {
	switch f.kind {
	case compressionNone:
		if len(f.payload) != f.rawLen {
			return nil, fmt.Errorf("trace: frame length %d does not match raw length %d", len(f.payload), f.rawLen)
		}
		return f.payload, nil
	case compressionFlate:
		if cap(d.raw) < f.rawLen {
			d.raw = make([]byte, f.rawLen)
		}
		buf := d.raw[:f.rawLen]
		if err := d.inflateExact(f.payload, buf); err != nil {
			return nil, err
		}
		return buf, nil
	case compressionSplit:
		raw1, s1, s2, err := splitParts(f)
		if err != nil {
			return nil, err
		}
		if cap(d.raw) < f.rawLen {
			d.raw = make([]byte, f.rawLen)
		}
		buf := d.raw[:f.rawLen]
		if err := d.inflateExact(s1, buf[:raw1]); err != nil {
			return nil, err
		}
		if err := d.inflateExact(s2, buf[raw1:]); err != nil {
			return nil, err
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("trace: unknown compression kind %d", f.kind)
	}
}

// inflateExact decompresses src into dst, reusing the decoder's flate
// state, and requires the stream to end exactly at len(dst) bytes.
func (d *decoder) inflateExact(src, dst []byte) error {
	d.br.Reset(src)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.br)
	} else if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return fmt.Errorf("trace: reset flate reader: %w", err)
	}
	if _, err := io.ReadFull(d.fr, dst); err != nil {
		return fmt.Errorf("trace: decompress chunk: %w", err)
	}
	var extra [1]byte
	if n, _ := d.fr.Read(extra[:]); n != 0 {
		return fmt.Errorf("trace: chunk decompresses past its declared length %d", len(dst))
	}
	return nil
}

// splitParts parses a compressionSplit payload: uvarint raw length of
// the first (token-stream) stream, uvarint stored length of that stream,
// then the two flate streams back to back.
func splitParts(f frame) (raw1 int, s1, s2 []byte, err error) {
	u1, k1 := binary.Uvarint(f.payload)
	if k1 <= 0 {
		return 0, nil, nil, fmt.Errorf("trace: bad split chunk header")
	}
	u2, k2 := binary.Uvarint(f.payload[k1:])
	if k2 <= 0 {
		return 0, nil, nil, fmt.Errorf("trace: bad split chunk header")
	}
	rest := f.payload[k1+k2:]
	if u1 == 0 || u1 > uint64(f.rawLen) || u2 > uint64(len(rest)) {
		return 0, nil, nil, fmt.Errorf("trace: split chunk lengths out of range")
	}
	return int(u1), rest[:u2], rest[u2:], nil
}

// framePCColumn returns a decoded prefix of f's payload that covers
// at least the chunk's full token stream (which carries its PCs),
// reusing the decoder's buffers. For split-compressed frames only the
// first stream — the token stream itself — is inflated; the taken and
// address columns, the bulk of the payload, stay compressed. Other kinds
// decode fully (Go's inflater decodes whole 32KiB windows, so a
// partial read of a single stream saves nothing). Frame integrity is
// guaranteed by the CRC over the stored payload, which readFrame
// verified before any of it is decoded.
func (d *decoder) framePCColumn(f frame) ([]byte, error) {
	if f.kind != compressionSplit {
		return d.frameBytes(f)
	}
	raw1, s1, _, err := splitParts(f)
	if err != nil {
		return nil, err
	}
	if cap(d.raw) < raw1 {
		d.raw = make([]byte, raw1)
	}
	buf := d.raw[:raw1]
	if err := d.inflateExact(s1, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// release drops the decoder's buffers so a closed source does not pin
// them.
func (d *decoder) release() {
	d.fr = nil
	d.raw = nil
	d.br.Reset(nil)
}

// decodeFrameEvents decompresses one frame and decodes it directly
// into bound simulator events using the decoder's recycled buffers.
func (d *decoder) decodeFrameEvents(f frame, prog *isa.Program, evs []sim.Event) (uint64, []sim.Event, error) {
	raw, err := d.frameBytes(f)
	if err != nil {
		return 0, nil, err
	}
	return decodeChunkEventsV4(raw, prog, d.dict, evs, &d.sc)
}
