package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bioperfload/internal/runner"
)

// FuzzRequestBodies sends arbitrary bytes as the body of each job
// route to a server whose executor answers at once. No body may panic
// the server; every answer is a JSON document with status 200, 202,
// 400, 429 or 503; and a 400 enqueues no job.
func FuzzRequestBodies(f *testing.F) {
	routes := []string{"/v1/characterize", "/v1/evaluate", "/v1/sweep"}
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"program":"hmmsearch","size":"test","wait":true}`},
		{0, `{"program":"hmmsearch","accuracy":"sampled","hot":-3,"timeout_ms":9223372036854775807}`},
		{1, `{"program":"fasta","platform":"alpha21264","size":"test","fidelity":"fast","transformed":true}`},
		{1, `{"program":"fasta","platform":"nope"}`},
		{2, `{"kind":"evaluate","programs":["blast","blast"],"platforms":["itanium2"],"wait":true}`},
		{2, `{"kind":"characterize","fidelity":"fast"}`},
		{0, `{"program":"hmmsearch"}{"program":"fasta"}`},
		{1, `{"program":"hmmsearch","unknown":1}`},
		{2, `[]`},
		{0, ``},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	srv := New(Config{Session: runner.NewSession(1), QueueDepth: 4, Workers: 1})
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	srv.queue.exec = func(ctx context.Context, j *Job) (any, error) {
		return map[string]string{"answered": j.ID}, nil
	}
	h := srv.Handler()
	submitted := func() uint64 {
		srv.queue.mu.Lock()
		defer srv.queue.mu.Unlock()
		return srv.queue.nextID
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		before := submitted()
		req := httptest.NewRequest(http.MethodPost, routes[int(route)%len(routes)], bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("HTTP %d answered %q, not a JSON document: %q", rec.Code, ct, rec.Body.Bytes())
		}
		if rec.Code == http.StatusBadRequest && submitted() != before {
			t.Fatalf("a 400 enqueued a job: %s", rec.Body.Bytes())
		}
	})
}
