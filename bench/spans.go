package main

import (
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"bioperfload/internal/runstream"
	"bioperfload/internal/sim"
)

// span is one timed interval of a traced run. Spans are kept in memory
// and written out when the run ends. Times are nanoseconds since the
// tracer was created.
//
// An aggregate span (Calls > 0) stands for many short calls into one
// layer made back to back on its parent's goroutine — every slab a
// simulator hands an observer, every chunk a decoder hands the
// analysis. Busy is their total time; Start and End are the first
// call's start and the last call's end.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`        // 0 for a pass's root span
	Op     int    `json:"op"`            // the pass the span belongs to
	Req    int    `json:"req,omitempty"` // the request a serve span times
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int    `json:"calls,omitempty"`
}

func (s *span) duration() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer records spans. Its methods are safe for concurrent use, and a
// nil tracer records nothing, so untraced code paths can share callers.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: start})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// span runs f inside a span named name and returns f's error.
func (t *tracer) span(name string, parent, op int, f func() error) error {
	id := t.begin(name, parent, op)
	defer t.end(id)
	return f()
}

// request tags the span id with a request number.
func (t *tracer) request(id, req int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Req = req
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// agg accumulates an aggregate span. One goroutine drives it; close
// publishes it to the tracer.
type agg struct {
	t      *tracer
	id     int
	first  int64
	last   int64
	busy   int64
	calls  int
	closed bool
}

// agg opens an aggregate span; the returned value is nil for a nil
// tracer, and a nil agg times nothing.
func (t *tracer) agg(name string, parent, op int) *agg {
	if t == nil {
		return nil
	}
	id := t.begin(name, parent, op)
	return &agg{t: t, id: id}
}

// call times one call into the layer.
func (a *agg) call(f func()) {
	if a == nil {
		f()
		return
	}
	start := a.t.now()
	f()
	end := a.t.now()
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	a.busy += end - start
	a.calls++
}

func (a *agg) close() {
	if a == nil || a.closed {
		return
	}
	a.closed = true
	t := a.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[a.id-1]
	if a.calls == 0 {
		// No call happened: an empty plain span, not an aggregate.
		s.End = s.Start
		return
	}
	s.Start, s.End, s.Busy, s.Calls = a.first, a.last, a.busy, a.calls
}

// selfTimes returns each span's self time: its duration minus the time
// its children cover. Plain children are merged as intervals, so
// children that overlap — two workers under one pass — are counted
// once; aggregate children run back to back on the parent's goroutine
// and cover exactly their Busy time. A negative remainder (clock
// granularity) is clamped to zero.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	plain := make(map[int][]iv)
	busy := make(map[int]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		if s.Calls > 0 {
			busy[s.Parent] += s.Busy
		} else {
			plain[s.Parent] = append(plain[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		covered := busy[s.ID]
		ivs := plain[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = max(0, s.duration()-covered)
	}
	return out
}

// passBreakdown is one traced pass split into layers, in seconds.
type passBreakdown struct {
	wall float64
	// self is the self time of the pass's spans summed by span name,
	// glue spans (names under "bench.") excluded.
	self map[string]float64
	// idle is jobs × wall minus the self time of every span of the
	// pass: worker time no span covers.
	idle float64
	// unattributedPct is the glue spans' self time — the benchmark's
	// own composition, which no layer explains — as a percentage of
	// jobs × wall.
	unattributedPct float64
}

// passLayers splits every traced pass (a root span and the spans
// tagged with its op) into layers, in pass order. By construction the
// layers' self times, the glue and the idle time add up to jobs × wall.
func passLayers(spans []span, jobs int) []passBreakdown {
	self := selfTimes(spans)
	byOp := make(map[int]*passBreakdown)
	var ops []int
	glue := make(map[int]float64)
	covered := make(map[int]float64)
	for i := range spans {
		s := &spans[i]
		p := byOp[s.Op]
		if p == nil {
			p = &passBreakdown{self: make(map[string]float64)}
			byOp[s.Op] = p
			ops = append(ops, s.Op)
		}
		sec := float64(self[s.ID]) / 1e9
		covered[s.Op] += sec
		if s.Parent == 0 {
			p.wall = float64(s.duration()) / 1e9
		}
		if strings.HasPrefix(s.Name, "bench.") {
			glue[s.Op] += sec
		} else {
			p.self[s.Name] += sec
		}
	}
	sort.Ints(ops)
	out := make([]passBreakdown, 0, len(ops))
	for _, op := range ops {
		p := byOp[op]
		worker := float64(jobs) * p.wall
		p.idle = worker - covered[op]
		if worker > 0 {
			p.unattributedPct = 100 * glue[op] / worker
		}
		out = append(out, *p)
	}
	return out
}

// timedObserver charges every slab a simulator hands inner to an
// aggregate span, and counts the events it saw.
type timedObserver struct {
	inner  sim.BatchObserver
	a      *agg
	events uint64
}

func (o *timedObserver) ObserveBatch(evs []sim.Event) {
	o.events += uint64(len(evs))
	o.a.call(func() { o.inner.ObserveBatch(evs) })
}

// timedSource charges the time a consumer waits in Next to an
// aggregate span.
type timedSource struct {
	inner runstream.Source
	a     *agg
}

func (s *timedSource) Next() (ch *runstream.Chunk, release func(), err error) {
	s.a.call(func() { ch, release, err = s.inner.Next() })
	return ch, release, err
}

func (s *timedSource) Close() { s.inner.Close() }

// timedWriter charges writes to the aggregate span in a (which the
// caller may swap between phases) and counts the bytes written.
type timedWriter struct {
	w io.Writer
	a *agg
	n int64
}

func (w *timedWriter) Write(p []byte) (n int, err error) {
	w.a.call(func() { n, err = w.w.Write(p) })
	w.n += int64(n)
	return n, err
}
