package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Queue admission errors, mapped to HTTP status codes by the
// handlers (429 and 503 respectively).
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: shutting down")
)

// maxFinishedJobs bounds the finished jobs the queue remembers: beyond
// it, the oldest finished job is forgotten, and GET /v1/jobs/{id}
// answers 404 for it. An event stream already open keeps its job.
const maxFinishedJobs = 4096

// queue is the bounded job queue and worker pool. Admission is
// non-blocking: when the channel is full, submit fails immediately
// with ErrQueueFull and the client sees 429 — backpressure instead of
// unbounded buffering. Identical in-flight requests (same canonical
// key) are deduplicated onto one job, and the Session below that
// deduplicates the underlying simulation artifacts, so N concurrent
// identical characterize requests cost one compile and one run.
type queue struct {
	jobs    chan *Job
	wg      sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelFunc
	timeout time.Duration // server-wide per-job cap (0 = none)
	limit   int           // normal admission cap (queued jobs)
	reserve int           // extra slots only shed-degraded jobs may use

	// exec runs one job's work; swapped in tests to control timing.
	exec func(ctx context.Context, j *Job) (any, error)
	// onDone observes finished jobs (metrics).
	onDone func(j *Job)

	mu       sync.Mutex
	closed   bool
	queued   int // admitted but not yet started
	byID     map[string]*Job
	finished []string        // IDs of the finished jobs in byID, oldest first
	inflight map[string]*Job // key -> queued or running job
	nextID   uint64
}

func newQueue(depth, reserve, workers int, timeout time.Duration,
	exec func(ctx context.Context, j *Job) (any, error), onDone func(j *Job)) *queue {
	ctx, cancel := context.WithCancel(context.Background())
	q := &queue{
		jobs:     make(chan *Job, depth+reserve),
		baseCtx:  ctx,
		cancel:   cancel,
		timeout:  timeout,
		limit:    depth,
		reserve:  reserve,
		exec:     exec,
		onDone:   onDone,
		byID:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// submit enqueues a job for (kind, key, spec), or joins the existing
// in-flight job with the same key (singleflight; deduped=true). The
// per-request timeout rides on the job; when requests dedupe, the
// first request's timeout governs the shared run.
//
// Normal admissions stop at the queue depth. shed=true admissions —
// fast-tier jobs the overload ladder degraded to — may additionally
// use the reserve slots: a saturated queue full of slow full-fidelity
// work still leaves room to serve cheap degraded answers instead of
// 429ing.
func (q *queue) submit(kind, key string, spec any, timeout time.Duration, shed bool) (j *Job, deduped bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, ErrShuttingDown
	}
	if exist := q.inflight[key]; exist != nil {
		return exist, true, nil
	}
	limit := q.limit
	if shed {
		limit += q.reserve
	}
	if q.queued >= limit {
		return nil, false, ErrQueueFull
	}
	q.nextID++
	j = newJob(fmt.Sprintf("j%06d", q.nextID), kind, key, spec, timeout)
	select {
	case q.jobs <- j:
	default:
		// The channel holds limit+reserve slots, so this only trips if
		// accounting and capacity disagree — treat it as full.
		return nil, false, ErrQueueFull
	}
	q.queued++
	q.byID[j.ID] = j
	q.inflight[key] = j
	return j, false, nil
}

// answered registers a job that is finished on arrival with result: no
// queue slot, no worker. The overload ladder uses it for results
// already on hand.
func (q *queue) answered(kind, key string, spec any, result any) *Job {
	q.mu.Lock()
	q.nextID++
	j := newJob(fmt.Sprintf("j%06d", q.nextID), kind, key, spec, 0)
	q.byID[j.ID] = j
	q.retire(j)
	q.mu.Unlock()
	j.setRunning()
	j.finish(result, nil)
	if q.onDone != nil {
		q.onDone(j)
	}
	return j
}

// retire records j as finished and forgets the oldest finished job
// beyond maxFinishedJobs. The caller holds q.mu.
func (q *queue) retire(j *Job) {
	q.finished = append(q.finished, j.ID)
	if len(q.finished) > maxFinishedJobs {
		delete(q.byID, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// get returns a job by ID (nil if unknown or forgotten).
func (q *queue) get(id string) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.byID[id]
}

// depth returns the number of queued-but-not-started jobs.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// subscribers returns the number of live event-stream consumers
// across all jobs.
func (q *queue) subscribers() int {
	q.mu.Lock()
	jobs := make([]*Job, 0, len(q.byID))
	for _, j := range q.byID {
		jobs = append(jobs, j)
	}
	q.mu.Unlock()
	n := 0
	for _, j := range jobs {
		n += j.Subscribers()
	}
	return n
}

func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.jobs {
		q.runJob(j)
	}
}

func (q *queue) runJob(j *Job) {
	q.mu.Lock()
	q.queued--
	q.mu.Unlock()
	ctx := q.baseCtx
	timeout := j.timeout
	if q.timeout > 0 && (timeout <= 0 || timeout > q.timeout) {
		timeout = q.timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	j.setRunning()
	result, err := q.exec(ctx, j)
	j.finish(result, err)
	q.mu.Lock()
	if q.inflight[j.Key] == j {
		delete(q.inflight, j.Key)
	}
	q.retire(j)
	q.mu.Unlock()
	if q.onDone != nil {
		q.onDone(j)
	}
}

// shutdown stops admission and drains: already-queued jobs still run
// to completion. If ctx expires first, the base context is canceled —
// in-flight simulations abort at their next cancellation check and
// still-queued jobs fail instantly — and shutdown waits for the
// workers before returning ctx's error.
func (q *queue) shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.mu.Unlock()
	close(q.jobs)
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		q.cancel()
		return nil
	case <-ctx.Done():
		q.cancel()
		<-done
		return ctx.Err()
	}
}
