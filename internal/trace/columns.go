package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// decodeChunkColumns decodes a sparse-layout (v2/v3) chunk payload into
// the column form the block-characterized replay engine consumes: PC
// runs, the taken and address-present bitmaps, and the effective
// addresses of memory-class events — without materializing per-event
// records. isMem marks, per static PC, the load/store instructions.
//
// Structural validation matches decodeChunkEvents — bounds-checked
// varints, bitmap padding, PC-in-program, zero-address, zero-target
// and trailing-byte checks — except that target values are skipped
// rather than range-checked (this path never materializes them; the
// event decoder still rejects out-of-range targets on full decodes).
func decodeChunkColumns(data []byte, version int, isMem []bool, ch *runstream.Chunk) error {
	if version < 2 {
		return fmt.Errorf("trace: column decode requires the sparse layout (v2+), got v%d", version)
	}
	ch.Runs = ch.Runs[:0]
	ch.Addrs = ch.Addrs[:0]
	base, n, pos, err := scanChunkPCRuns(data, version, int64(len(isMem)), func(pc, cnt int32) {
		ch.Runs = append(ch.Runs, runstream.Run{PC: pc, N: cnt})
	})
	if err != nil {
		return err
	}
	ch.Base = base
	ch.N = n
	nb := (n + 7) / 8
	padOK := func(bm []byte) bool { return n%8 == 0 || bm[nb-1]>>(n%8) == 0 }
	var taken, tpresent, present []byte
	if version == 2 {
		// v2 groups all four bitmaps ahead of the varint streams; the
		// run scan already validated the region's bounds.
		off := uvarintLen(base) + uvarintLen(uint64(n)) + nb
		taken = data[off : off+nb]
		tpresent = data[off+nb : off+2*nb]
		present = data[off+2*nb : off+3*nb]
	} else {
		// v3 places them between the PC deltas and the target stream.
		if pos+3*nb > len(data) {
			return fmt.Errorf("trace: chunk truncated at offset %d (need %d bytes)", pos, 3*nb)
		}
		taken = data[pos : pos+nb]
		tpresent = data[pos+nb : pos+2*nb]
		present = data[pos+2*nb : pos+3*nb]
		pos += 3 * nb
	}
	if !padOK(taken) || !padOK(tpresent) || !padOK(present) {
		return fmt.Errorf("trace: nonzero padding bits in chunk bitmap")
	}
	if cap(ch.Taken) < nb {
		ch.Taken = make([]byte, nb, nb+nb/2)
		ch.Present = make([]byte, nb, nb+nb/2)
	}
	ch.Taken = ch.Taken[:nb]
	ch.Present = ch.Present[:nb]
	copy(ch.Taken, taken)
	copy(ch.Present, present)

	// Skip the target stream: one varint per set tpresent bit, each
	// validated as nonzero (a zero delta would mean a fallthrough target
	// marked present, which the writer never emits).
	for _, b := range tpresent {
		for k := bits.OnesCount8(b); k > 0; k-- {
			if uint(pos) >= uint(len(data)) {
				return errTruncatedVarint
			}
			u := uint64(data[pos])
			pos++
			if u >= 0x80 {
				if uint(pos) < uint(len(data)) && data[pos] < 0x80 {
					u = u&0x7f | uint64(data[pos])<<7
					pos++
				} else if u, pos, err = uvarintAt(data, pos-1); err != nil {
					return err
				}
			}
			if u == 0 {
				return fmt.Errorf("trace: fallthrough target marked present in chunk at base %d", base)
			}
		}
	}

	// Address stream: the delta chain covers every set present bit, in
	// event order, but only memory-class events contribute addresses to
	// the column (a present bit on a non-memory event — possible only in
	// a hostile trace — advances the chain and is dropped). Classifying
	// event i needs its PC, recovered by merge-walking the runs.
	runIdx := 0
	runStart := int32(0) // event index where ch.Runs[runIdx] begins
	prevAddr := uint64(0)
	for bi, b := range present {
		for b != 0 {
			i := int32(bi<<3 + bits.TrailingZeros8(b))
			b &= b - 1
			for i >= runStart+ch.Runs[runIdx].N {
				runStart += ch.Runs[runIdx].N
				runIdx++
			}
			if uint(pos) >= uint(len(data)) {
				return errTruncatedVarint
			}
			u := uint64(data[pos])
			pos++
			if u >= 0x80 {
				if uint(pos) < uint(len(data)) && data[pos] < 0x80 {
					u = u&0x7f | uint64(data[pos])<<7
					pos++
				} else if u, pos, err = uvarintAt(data, pos-1); err != nil {
					return err
				}
			}
			a := prevAddr + uint64(unzigzag(u))
			if a == 0 {
				return fmt.Errorf("trace: zero address marked present at record %d", i)
			}
			prevAddr = a
			if isMem[ch.Runs[runIdx].PC+(i-runStart)] {
				ch.Addrs = append(ch.Addrs, a)
			}
		}
	}
	if pos != len(data) {
		return fmt.Errorf("trace: %d trailing bytes after chunk payload", len(data)-pos)
	}
	return nil
}

// parseFrameBytes parses one chunk frame from an in-memory byte span
// (the ReaderAt analogue of readFrame): length prefixes, compression
// kind, CRC over the stored payload, and exact consumption of the
// span.
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

// columnSource streams decoded column chunks from a work-claiming
// worker pool: each worker atomically claims the next undecoded chunk,
// so a worker that lands on a cheap chunk immediately claims another
// instead of idling behind a fixed stripe (the failure mode of striped
// ownership when chunk decode costs are skewed — exactly the shape a
// v4 trace has, where a loop-dominated chunk is a handful of tokens
// and a branchy one is thousands). Commit order is restored by a slot
// ring: chunk c is delivered through slot (c-lo) mod window, and its
// claimant is admitted only once the consumer has taken chunk
// c-window, which frees the slot and bounds decoded chunks in flight.
// Admission is by chunk index, not by a token on the slot: a claimant
// that falls a window behind must not lose its slot to the claimant of
// the chunk a window later, or the two would be delivered swapped.
// Decode slabs are recycled through a sync.Pool, so steady-state
// decoding allocates nothing.
type columnSource struct {
	slots []chan colMsg // cap 1 each: the slot's decoded chunk or error
	claim atomic.Int64
	pool  sync.Pool // *runstream.Chunk decode slabs
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	lo    int
	hi    int
	err   error

	// mu guards next and stopped; cond wakes claimants waiting in admit
	// whenever the consumer advances or the source stops. Only the
	// consumer writes next.
	mu      sync.Mutex
	cond    sync.Cond
	next    int
	stopped bool
}

type colMsg struct {
	ch  *runstream.Chunk
	err error
}

// chunksPerWorker sizes the delivery ring per worker: how many decoded
// chunks may sit between the claim frontier and the consumer before
// claimants block in admit.
const chunksPerWorker = 3

// Columns returns a column source over chunks [lo, hi), decoded by a
// pool of work-claiming workers (clamped to at least 1). Chunks are
// read directly at their indexed offsets, so workers share nothing but
// the ReaderAt (and, for v4, the immutable bound dictionary);
// per-chunk validation matches Range (frame CRC, base and event-count
// cross-checks against the index). The context is checked once per
// chunk.
func (ir *IndexedReader) Columns(ctx context.Context, prog *isa.Program, lo, hi, workers int) runstream.Source {
	if lo < 0 || hi > len(ir.chunks) || lo > hi {
		panic(fmt.Sprintf("trace: Columns [%d,%d) outside %d chunks", lo, hi, len(ir.chunks)))
	}
	if workers < 1 {
		workers = 1
	}
	if workers > hi-lo {
		workers = hi - lo
	}
	s := &columnSource{stop: make(chan struct{}), lo: lo, hi: hi, next: lo}
	s.cond.L = &s.mu
	s.claim.Store(int64(lo))
	if workers == 0 {
		return s // empty range: Next returns io.EOF immediately
	}
	var isMem []bool
	if ir.version >= 4 {
		// Bind the dictionary to prog once, up front: workers then
		// share its per-run class offsets read-only.
		if err := ir.dict.bindShared(prog); err != nil {
			s.err = err
			return s
		}
	} else {
		isMem = make([]bool, len(prog.Insts))
		for pc := range prog.Insts {
			cls := isa.ClassOf(prog.Insts[pc].Op)
			isMem[pc] = cls == isa.ClassLoad || cls == isa.ClassStore
		}
	}
	window := workers * chunksPerWorker
	if window > hi-lo {
		window = hi - lo
	}
	s.slots = make([]chan colMsg, window)
	for i := range s.slots {
		s.slots[i] = make(chan colMsg, 1)
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(ctx, ir, isMem)
	}
	return s
}

func (s *columnSource) worker(ctx context.Context, ir *IndexedReader, isMem []bool) {
	defer s.wg.Done()
	dec := &decoder{version: ir.version, dict: ir.dict}
	var buf []byte
	for {
		c := int(s.claim.Add(1)) - 1
		if c >= s.hi {
			return
		}
		if !s.admit(c) {
			return
		}
		var msg colMsg
		msg.ch, msg.err = s.decodeChunk(ctx, ir, dec, isMem, &buf, c)
		select {
		case s.slots[(c-s.lo)%len(s.slots)] <- msg:
		case <-s.stop:
			return
		}
		if msg.err != nil {
			// The consumer sees the error at this chunk's ordered
			// position and closes stop; don't claim past it.
			return
		}
	}
}

// decodeChunk reads, validates, and column-decodes chunk c into a
// pooled chunk.
func (s *columnSource) decodeChunk(ctx context.Context, ir *IndexedReader, dec *decoder, isMem []bool, buf *[]byte, c int) (*runstream.Chunk, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("trace: columns: %w", err)
	}
	off := ir.chunks[c].offset
	flen := ir.rangeEnd(c+1) - off
	if cap(*buf) < int(flen) {
		*buf = make([]byte, flen)
	}
	b := (*buf)[:flen]
	if _, err := ir.ra.ReadAt(b, off); err != nil {
		return nil, fmt.Errorf("trace: chunk %d: read frame: %w", c, err)
	}
	f, err := parseFrameBytes(b)
	if err != nil {
		return nil, fmt.Errorf("trace: chunk %d: %w", c, err)
	}
	raw, err := dec.frameBytes(f)
	if err != nil {
		return nil, err
	}
	ch, _ := s.pool.Get().(*runstream.Chunk)
	if ch == nil {
		ch = &runstream.Chunk{}
	}
	if ir.version >= 4 {
		err = decodeChunkColumnsV4(raw, ir.dict, ch, &dec.sc)
	} else {
		err = decodeChunkColumns(raw, ir.version, isMem, ch)
	}
	if err != nil {
		s.pool.Put(ch)
		return nil, err
	}
	if ch.Base != ir.bases[c] {
		s.pool.Put(ch)
		return nil, fmt.Errorf("trace: chunk %d base %d, expected %d", c, ch.Base, ir.bases[c])
	}
	if uint64(ch.N) != ir.chunks[c].events {
		s.pool.Put(ch)
		return nil, fmt.Errorf("trace: chunk %d decoded %d events, index records %d", c, ch.N, ir.chunks[c].events)
	}
	return ch, nil
}

// Next implements runstream.Source.
func (s *columnSource) Next() (*runstream.Chunk, func(), error) {
	if s.err != nil {
		return nil, nil, s.err
	}
	if s.next >= s.hi {
		return nil, nil, io.EOF
	}
	msg := <-s.slots[(s.next-s.lo)%len(s.slots)]
	if msg.err != nil {
		s.err = msg.err
		s.halt()
		return nil, nil, msg.err
	}
	s.mu.Lock()
	s.next++ // admits the chunk one window later
	s.mu.Unlock()
	s.cond.Broadcast()
	ch := msg.ch
	release := func() { s.pool.Put(ch) }
	return ch, release, nil
}

// Close implements runstream.Source, stopping the decode workers. It
// is safe to call at any time; in-flight chunks stay valid until their
// release functions run.
func (s *columnSource) Close() {
	s.halt()
	s.wg.Wait()
}

// admit blocks until chunk c may be decoded — the consumer has taken
// chunk c-window, so c's slot is free — and reports false instead once
// the source has stopped.
func (s *columnSource) admit(c int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c >= s.next+len(s.slots) && !s.stopped {
		s.cond.Wait()
	}
	return !s.stopped
}

// halt stops the decode workers: blocked deliveries see stop, and
// claimants waiting for admission wake and quit.
func (s *columnSource) halt() {
	s.once.Do(func() {
		close(s.stop)
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		s.cond.Broadcast()
	})
}
