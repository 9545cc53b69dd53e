package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// memo is the session's one result table type; compiles,
// characterizations and timing results each keep one. The first caller
// of a key claims it, computes under its own context and settles it.
// Concurrent callers wait on the entry or on their own context,
// whichever ends first. A failure of any kind leaves the table before
// its waiters wake, and a waiter whose leader failed with a context
// error while its own context is live claims the key again.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	hits    atomic.Uint64 // results a caller got from another's computation
}

// memoEntry is one key's result. done closes once v or err is set.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// claim returns the entry for k and whether the caller leads it: a
// leader must settle the entry, a follower waits on it.
func (t *memo[K, V]) claim(k K) (*memoEntry[V], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[k]; e != nil {
		return e, false
	}
	if t.entries == nil {
		t.entries = make(map[K]*memoEntry[V])
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	t.entries[k] = e
	return e, true
}

// settle records the leader's outcome; a failed entry leaves the table
// before done closes.
func (t *memo[K, V]) settle(k K, e *memoEntry[V], v V, err error) {
	e.v, e.err = v, err
	if err != nil {
		t.mu.Lock()
		if t.entries[k] == e {
			delete(t.entries, k)
		}
		t.mu.Unlock()
	}
	close(e.done)
}

// wait follows e until it settles or ctx ends. retry reports that the
// leader was canceled while ctx is live, so the caller claims again.
func (t *memo[K, V]) wait(ctx context.Context, e *memoEntry[V]) (v V, err error, retry bool) {
	select {
	case <-e.done:
	case <-ctx.Done():
		return v, ctx.Err(), false
	}
	if e.err != nil {
		return v, e.err, isContextErr(e.err) && ctx.Err() == nil
	}
	t.hits.Add(1)
	return e.v, nil, false
}

// do returns k's result, computing it when the caller leads the key.
func (t *memo[K, V]) do(ctx context.Context, k K, compute func() (V, error)) (V, error) {
	for {
		e, lead := t.claim(k)
		if lead {
			v, err := compute()
			t.settle(k, e, v, err)
			return v, err
		}
		if v, err, retry := t.wait(ctx, e); !retry {
			return v, err
		}
	}
}

// peek returns k's result if it is already settled, without waiting.
func (t *memo[K, V]) peek(k K) (v V, ok bool) {
	t.mu.Lock()
	e := t.entries[k]
	t.mu.Unlock()
	if e == nil {
		return v, false
	}
	select {
	case <-e.done:
		if e.err == nil {
			t.hits.Add(1)
			return e.v, true
		}
	default:
	}
	return v, false
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
