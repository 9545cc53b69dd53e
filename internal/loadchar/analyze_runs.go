package loadchar

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// Execution records how a replay analysis actually ran, so callers can
// distinguish "parallel requested, ran parallel" from the silent
// serial collapses that previously hid behind identical results.
type Execution struct {
	// RequestedWorkers is what the caller asked for.
	RequestedWorkers int `json:"requested_workers"`
	// Workers is the worker count the analysis actually used.
	Workers int `json:"workers"`
	// SerialReason is empty when the analysis ran parallel as
	// requested; otherwise one of the SerialReason* constants naming
	// why it ran with fewer workers.
	SerialReason string `json:"serial_reason,omitempty"`
}

// Parallel reports whether more than one analysis worker ran.
func (e Execution) Parallel() bool { return e.Workers > 1 }

// Serial-collapse reasons. Empty means the requested parallelism ran.
const (
	// SerialReasonRequested: the caller asked for at most one worker.
	SerialReasonRequested = "requested"
	// SerialReasonGOMAXPROCS: worker count clamped to schedulable CPUs.
	SerialReasonGOMAXPROCS = "gomaxprocs"
	// SerialReasonSingleChunk: the trace has too few chunks to split.
	SerialReasonSingleChunk = "single-chunk"
)

// bpLane replays the conditional-branch column for one partition of
// static branch PCs (pc mod nShards == mine), joining mispredict
// outcomes with the run lane's fed flags.
type bpLane struct {
	sh      *bpred.DenseShard
	nShards int
	mine    int
	fedMiss uint64
}

func newBpLane(nShards, mine int) *bpLane {
	return &bpLane{sh: bpred.NewPaperDenseShard(), nShards: nShards, mine: mine}
}

// reset returns the lane to the state newBpLane gives.
func (l *bpLane) reset() {
	l.sh.Reset()
	l.fedMiss = 0
}

// chunk replays one chunk's conditional branches. BrTaken carries one
// bit per dynamic conditional branch, in the same ordinal space as the
// fed bitmap, so a single cursor serves both.
func (l *bpLane) chunk(ch *runstream.Chunk, ann *chunkAnn) {
	br := 0
	for _, tk := range ann.toks {
		for rep := int32(0); rep < tk.rep; rep++ {
			for _, off := range tk.ri.brs {
				pc := tk.ri.pc + off
				taken := ch.BrTaken[br>>3]&(1<<(br&7)) != 0
				if l.nShards == 1 || int(pc)%l.nShards == l.mine {
					if l.sh.Observe(pc, taken) && ann.fedAt(br) {
						l.fedMiss++
					}
				} else {
					l.sh.TrainGlobal(pc, taken)
				}
				br++
			}
		}
	}
}

// memLane replays the memory column for one partition of cache sets
// (cache.ShardOf on the block address). Every lane walks all memory
// events to keep the shared address-column cursor aligned; only owned
// addresses touch its private hierarchy, which holds just the lane's
// 1/nShards of the sets (cache.ShardConfig) and sees each owned
// address in its local form (cache.ShardLocal).
type memLane struct {
	hier    *cache.Hierarchy
	l1miss  []uint64
	block   uint64
	nShards int
	mine    int
}

func newMemLane(hcfg cache.HierarchyConfig, nInsts, nShards, mine int) *memLane {
	return &memLane{
		hier:    cache.NewHierarchy(cache.ShardConfig(hcfg, nShards)),
		l1miss:  make([]uint64, nInsts),
		block:   hcfg.L1.Block,
		nShards: nShards,
		mine:    mine,
	}
}

// reset returns the lane to the state newMemLane gives.
func (l *memLane) reset() {
	l.hier.Reset()
	clear(l.l1miss)
}

// chunk replays one chunk's memory accesses. Addrs carries one entry
// per memory instance (zeros included), so the column is a flat
// cursor.
func (l *memLane) chunk(ch *runstream.Chunk, ann *chunkAnn) {
	cur := 0
	for _, tk := range ann.toks {
		for rep := int32(0); rep < tk.rep; rep++ {
			for _, m := range tk.ri.mems {
				addr := ch.Addrs[cur]
				cur++
				if l.nShards != 1 {
					if cache.ShardOf(addr, l.block, l.nShards) != l.mine {
						continue
					}
					addr = cache.ShardLocal(addr, l.block, l.nShards)
				}
				if m&storeBit != 0 {
					l.hier.Access(addr, true)
				} else if lvl, _ := l.hier.Access(addr, false); lvl != cache.LevelL1 {
					l.l1miss[tk.ri.pc+(m&^storeBit)]++
				}
			}
		}
	}
}

// bundle is one chunk plus its run-lane annotation, reference-counted
// across the shard lanes.
type bundle struct {
	ch      *runstream.Chunk
	ann     *chunkAnn
	release func()
	refs    atomic.Int32
}

// AnalyzeRuns runs the run-characterized replay over a column
// stream: the run lane memoizes the dependence and sequence machines
// over (state, run) pairs, the predictor lane replays the taken column
// with the paper hybrid, and the memory lane replays the address
// column through the paper hierarchy. With workers > 1 the predictor
// and memory lanes split into exact shards (by branch PC and by cache
// set partition) running on their own goroutines. The resulting
// profile is byte-identical to the per-event reference passes, pinned by
// golden tests; the analysis is report-only, like one rebuilt from a
// Snapshot. With one worker the body is exactly a live analysis's:
// New plus ObserveChunk per chunk.
//
// The configuration is pinned to the paper's (cache.PaperConfig,
// bpred.NewPaperHybrid): the shard lanes' exactness proofs are tied to
// that geometry, and it is the only configuration replay serves.
func AnalyzeRuns(ctx context.Context, prog *isa.Program, src runstream.Source, workers int) (*Analysis, error) {
	exec := Execution{RequestedWorkers: workers, Workers: workers}
	if workers <= 1 {
		exec.Workers = 1
		exec.SerialReason = SerialReasonRequested
	}

	next := func() (*runstream.Chunk, func(), error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("loadchar: run analysis: %w", err)
		}
		return src.Next()
	}

	if exec.Workers == 1 {
		// The fused body is a live analysis fed chunks.
		a := New(prog)
		for {
			ch, release, err := next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			a.ObserveChunk(ch)
			if release != nil {
				release()
			}
		}
		a.seal(exec)
		return a, nil
	}

	// Lane topology: the run lane runs here (it is the ordering spine);
	// the remaining workers split between predictor shards and memory
	// shards, memory-heavy because the cache walk dominates. The memory
	// shard count must be a power of two within the set-partition limit.
	eng := newRunEngine(prog)
	hcfg := cache.PaperConfig()
	w := exec.Workers
	nb := (w - 1) / 3
	if nb < 1 {
		nb = 1
	}
	nm := w - 1 - nb
	if nm < 1 {
		nm = 1
	}
	nm = cache.ShardCount(hcfg, nm)

	bps := make([]*bpLane, nb)
	mems := make([]*memLane, nm)
	nLanes := nb + nm
	chans := make([]chan *bundle, nLanes)
	work := make([]func(*bundle), nLanes)
	for i := 0; i < nb; i++ {
		l := newBpLane(nb, i)
		bps[i] = l
		work[i] = func(b *bundle) { l.chunk(b.ch, b.ann) }
	}
	for i := 0; i < nm; i++ {
		l := newMemLane(hcfg, len(prog.Insts), nm, i)
		mems[i] = l
		work[nb+i] = func(b *bundle) { l.chunk(b.ch, b.ann) }
	}

	annPool := sync.Pool{New: func() any { return &chunkAnn{} }}
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *bundle, 4)
		wg.Add(1)
		go func(in chan *bundle, f func(*bundle)) {
			defer wg.Done()
			for b := range in {
				f(b)
				if b.refs.Add(-1) == 0 {
					if b.release != nil {
						b.release()
					}
					annPool.Put(b.ann)
				}
			}
		}(chans[i], work[i])
	}

	feed := func() error {
		for {
			ch, release, err := next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			ann := annPool.Get().(*chunkAnn)
			eng.processChunk(ch, ann)
			b := &bundle{ch: ch, ann: ann, release: release}
			b.refs.Store(int32(nLanes))
			for _, c := range chans {
				c <- b
			}
		}
	}
	err := feed()
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	a := &Analysis{prog: prog, Exec: exec}
	a.assemble(eng, bps, mems)
	return a, nil
}
