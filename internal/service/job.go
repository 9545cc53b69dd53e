package service

import (
	"fmt"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. A job moves queued → running → done|failed;
// there is no separate canceled state — a canceled or timed-out job
// fails with the context error in its Error field.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Event is one line of a job's progress log, streamed by
// GET /v1/jobs/{id}/events.
type Event struct {
	Seq     int       `json:"seq"`
	Time    time.Time `json:"time"`
	Message string    `json:"message"`
}

// Job is one queued unit of work. All fields behind mu; readers use
// View/EventsSince. The done channel closes exactly once on finish,
// and changed is swapped on every mutation so streamers can wait for
// news without polling.
type Job struct {
	ID   string
	Kind string

	// spec is the resolved, validated request the executor runs.
	spec any
	// timeout is the request's per-job limit (0 = server default).
	timeout time.Duration

	mu       sync.Mutex
	status   Status
	events   []Event
	result   any
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
	changed  chan struct{}
	subs     int
}

func newJob(id, kind string, spec any, timeout time.Duration) *Job {
	j := &Job{
		ID: id, Kind: kind,
		spec:    spec,
		timeout: timeout,
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		changed: make(chan struct{}),
	}
	return j
}

// signal wakes every waiter. Callers hold j.mu.
func (j *Job) signal() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Event appends a progress message and wakes streamers.
func (j *Job) Event(format string, args ...any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, Event{
		Seq: len(j.events), Time: time.Now(), Message: fmt.Sprintf(format, args...),
	})
	j.signal()
}

func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = StatusRunning
	j.started = time.Now()
	j.events = append(j.events, Event{Seq: len(j.events), Time: j.started, Message: "running"})
	j.signal()
}

func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
		j.events = append(j.events, Event{Seq: len(j.events), Time: j.finished, Message: "failed: " + err.Error()})
	} else {
		j.status = StatusDone
		j.result = result
		j.events = append(j.events, Event{Seq: len(j.events), Time: j.finished, Message: "done"})
	}
	j.signal()
	close(j.done)
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Subscribe registers an event-stream consumer. Every Subscribe must
// be paired with exactly one Unsubscribe — deferred in the streaming
// handler, so a client hanging up early releases its slot promptly
// rather than at the terminal event.
func (j *Job) Subscribe() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs++
}

// Unsubscribe releases a Subscribe registration.
func (j *Job) Unsubscribe() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs--
}

// Subscribers returns the number of live event-stream consumers; the
// service exposes the total as a gauge and tests assert it drains to
// zero after client disconnects.
func (j *Job) Subscribers() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.subs
}

// EventsSince returns events[from:], the job's terminal-ness, and a
// channel that closes on the next mutation — the building blocks of
// the /events streaming loop.
func (j *Job) EventsSince(from int) (evs []Event, terminal bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.status == StatusDone || j.status == StatusFailed, j.changed
}

// JobView is the GET /v1/jobs/{id} document.
type JobView struct {
	JobID      string     `json:"job_id"`
	Kind       string     `json:"kind"`
	Status     Status     `json:"status"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     any        `json:"result,omitempty"`
}

// View snapshots the job for JSON serving.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		JobID: j.ID, Kind: j.Kind, Status: j.status,
		CreatedAt: j.created, Error: j.errMsg, Result: j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// Duration returns queue-to-finish wall time (0 if unfinished).
func (j *Job) Duration() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.created)
}
