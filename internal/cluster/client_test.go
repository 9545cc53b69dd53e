package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeArtifact serves body with honest transfer headers.
func writeArtifact(w http.ResponseWriter, body []byte) {
	sum := sha256.Sum256(body)
	w.Header().Set(HeaderSHA256, hex.EncodeToString(sum[:]))
	w.Header().Set(HeaderCRC32, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
	w.Write(body)
}

func fastClient() *Client {
	return NewClient(ClientConfig{
		Timeout: 2 * time.Second, Retries: 1, Backoff: time.Millisecond,
		FailureThreshold: 3, Cooloff: 50 * time.Millisecond,
	})
}

func TestFetchSnapshotRoundTrip(t *testing.T) {
	payload := []byte("the artifact payload")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// r.URL.Path arrives decoded; the wire form is the escaped
		// SnapshotPath.
		if r.URL.Path != "/v1/snapshots/prof|abc|classB" {
			t.Errorf("unexpected path %q", r.URL.Path)
			http.NotFound(w, r)
			return
		}
		writeArtifact(w, payload)
	}))
	defer ts.Close()

	c := fastClient()
	got, err := c.FetchSnapshot(context.Background(), ts.URL, "prof|abc|classB")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("got %q want %q", got, payload)
	}
	if !c.Available(ts.URL) {
		t.Fatal("healthy peer marked unavailable")
	}
}

func TestFetchNotFoundIsAuthoritative(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := fastClient()
	_, err := c.FetchSnapshot(context.Background(), ts.URL, "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 retried: %d calls", calls.Load())
	}
	if !c.Available(ts.URL) {
		t.Fatal("a 404 is not a peer failure")
	}
}

// TestFetchCorruptionRejected covers every way a body can disagree
// with its transfer headers: a bit-flipped or truncated body, a
// wrong-hash response, missing headers, and a wrong or malformed CRC
// under an honest hash; and a body longer than MaxArtifact, streamed
// or announced by Content-Length, under honest headers. None may be
// returned to the caller, and none may retry (the same corrupt bytes
// would come back).
func TestFetchCorruptionRejected(t *testing.T) {
	payload := []byte("characterization snapshot bytes, long enough to truncate meaningfully")
	honest := func(body []byte) http.Header {
		h := make(http.Header)
		sum := sha256.Sum256(body)
		h.Set(HeaderSHA256, hex.EncodeToString(sum[:]))
		h.Set(HeaderCRC32, strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10))
		return h
	}
	cases := []struct {
		name  string
		serve func(w http.ResponseWriter)
	}{
		{"bit-flipped body", func(w http.ResponseWriter) {
			flipped := append([]byte(nil), payload...)
			flipped[7] ^= 0x20
			for k, v := range honest(payload) {
				w.Header()[k] = v
			}
			w.Write(flipped)
		}},
		{"truncated body", func(w http.ResponseWriter) {
			for k, v := range honest(payload) {
				w.Header()[k] = v
			}
			w.Write(payload[:len(payload)/2])
		}},
		{"wrong-hash headers", func(w http.ResponseWriter) {
			for k, v := range honest([]byte("some other artifact entirely")) {
				w.Header()[k] = v
			}
			w.Write(payload)
		}},
		{"missing headers", func(w http.ResponseWriter) {
			w.Write(payload)
		}},
		{"wrong crc header", func(w http.ResponseWriter) {
			for k, v := range honest(payload) {
				w.Header()[k] = v
			}
			w.Header().Set(HeaderCRC32, strconv.FormatUint(uint64(crc32.ChecksumIEEE(payload)^1), 10))
			w.Write(payload)
		}},
		{"malformed crc header", func(w http.ResponseWriter) {
			for k, v := range honest(payload) {
				w.Header()[k] = v
			}
			w.Header().Set(HeaderCRC32, "not-a-crc")
			w.Write(payload)
		}},
		{"oversized streamed body", func(w http.ResponseWriter) {
			big := make([]byte, MaxArtifact+1)
			for k, v := range honest(big) {
				w.Header()[k] = v
			}
			// Flushed in pieces, the response goes out chunked, with
			// no Content-Length for the client to check up front.
			for off := 0; off < len(big); off += 64 << 10 {
				w.Write(big[off:min(off+64<<10, len(big))])
				w.(http.Flusher).Flush()
			}
		}},
		{"oversized content length", func(w http.ResponseWriter) {
			// The announced length alone condemns the response: the
			// client must not wait for a body it will not keep.
			for k, v := range honest(payload) {
				w.Header()[k] = v
			}
			w.Header().Set("Content-Length", strconv.Itoa(MaxArtifact+1))
			w.Write(payload)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				tc.serve(w)
			}))
			defer ts.Close()
			c := fastClient()
			_, err := c.FetchSnapshot(context.Background(), ts.URL, "k")
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if calls.Load() != 1 {
				t.Fatalf("corrupt response retried: %d calls", calls.Load())
			}
		})
	}
}

// TestFetchStopsReadingAtCap: a peer streaming far more than
// MaxArtifact is cut off once the cap is passed. The client hangs up,
// so the peer cannot deliver the whole stream.
func TestFetchStopsReadingAtCap(t *testing.T) {
	const stream = 64 * MaxArtifact
	var sent atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		piece := make([]byte, 64<<10)
		for sent.Load() < stream {
			if _, err := w.Write(piece); err != nil {
				return
			}
			sent.Add(int64(len(piece)))
		}
	}))
	_, err := fastClient().FetchSnapshot(context.Background(), ts.URL, "k")
	ts.Close() // waits for the handler to return
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if sent.Load() >= stream {
		t.Fatalf("the client read the whole %d-byte stream", stream)
	}
}

func TestFetchRetriesTransient5xx(t *testing.T) {
	payload := []byte("eventually fine")
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "busy", http.StatusInternalServerError)
			return
		}
		writeArtifact(w, payload)
	}))
	defer ts.Close()
	c := fastClient()
	got, err := c.FetchSnapshot(context.Background(), ts.URL, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) || calls.Load() != 2 {
		t.Fatalf("retry did not recover: body=%q calls=%d", got, calls.Load())
	}
}

// TestZeroConfigNoRetry: the zero ClientConfig makes one attempt, so
// a 5xx peer costs one request and no backoff.
func TestZeroConfigNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "busy", http.StatusInternalServerError)
	}))
	defer ts.Close()
	if _, err := NewClient(ClientConfig{}).FetchSnapshot(context.Background(), ts.URL, "k"); err == nil {
		t.Fatal("a 5xx peer served the artifact")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("zero ClientConfig made %d attempts, want 1", n)
	}
}

// TestHealthMarking: enough consecutive failures mark the peer down;
// while down it is unavailable; after the cooloff it becomes eligible
// again, and one success resets the count.
func TestHealthMarking(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(ClientConfig{
		Timeout: time.Second, Backoff: time.Millisecond,
		FailureThreshold: 2, Cooloff: time.Hour,
	})
	base := time.Now()
	c.now = func() time.Time { return base }

	c.FetchSnapshot(context.Background(), ts.URL, "k") // failure 1
	if !c.Available(ts.URL) {
		t.Fatal("one failure should not mark the peer down")
	}
	c.FetchSnapshot(context.Background(), ts.URL, "k") // failure 2: threshold
	if c.Available(ts.URL) {
		t.Fatal("peer should be down after hitting the threshold")
	}
	// Cooloff expiry re-enables probing.
	c.now = func() time.Time { return base.Add(2 * time.Hour) }
	if !c.Available(ts.URL) {
		t.Fatal("cooloff expired, peer should be probe-eligible")
	}
	st := c.Peers()
	if len(st) != 1 || st[0].Failures < 2 {
		t.Fatalf("health snapshot wrong: %+v", st)
	}
	c.markSuccess(ts.URL)
	if got := c.Peers(); len(got) != 0 {
		t.Fatalf("success should reset health state, got %+v", got)
	}
}

func TestPushSnapshot(t *testing.T) {
	var gotBody []byte
	var gotHash string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			t.Errorf("method %s", r.Method)
		}
		gotHash = r.Header.Get(HeaderSHA256)
		buf := make([]byte, r.ContentLength)
		io := r.Body
		n, _ := io.Read(buf)
		gotBody = buf[:n]
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	c := fastClient()
	data := []byte("replicated snapshot")
	if err := c.PushSnapshot(context.Background(), ts.URL, "prof|fp|classB", data); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if gotHash != hex.EncodeToString(sum[:]) {
		t.Fatalf("push hash header %q", gotHash)
	}
	if string(gotBody) != string(data) {
		t.Fatalf("push body %q", gotBody)
	}
}

func TestFetchSkipsDownPeer(t *testing.T) {
	// A cluster whose first candidate is marked down must go straight
	// to the second.
	payload := []byte("served by the healthy peer")
	var downCalls atomic.Int64
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		downCalls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer down.Close()
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeArtifact(w, payload)
	}))
	defer up.Close()

	cl := New(Config{
		Self:     "http://self.invalid",
		Peers:    []string{down.URL, up.URL},
		Replicas: 2,
		Client: ClientConfig{
			Timeout: time.Second, Backoff: time.Millisecond,
			FailureThreshold: 1, Cooloff: time.Hour,
		},
	})
	// First fetch trips the down peer's threshold (order of candidates
	// may put either first; force the failure directly).
	cl.client.markFailure(down.URL)
	got, ok := cl.Fetch(context.Background(), "some|key", nil)
	if !ok || string(got) != string(payload) {
		t.Fatalf("fetch failed: ok=%v body=%q", ok, got)
	}
	if downCalls.Load() != 0 {
		t.Fatalf("down peer was contacted %d times", downCalls.Load())
	}
}

func TestClusterFetchFallsToNextReplica(t *testing.T) {
	payload := []byte(fmt.Sprintf("good artifact %d", 42))
	// Two peers behind swappable handlers: after the ring decides the
	// candidate order, the FIRST candidate is made to serve a
	// transfer-consistent but semantically wrong artifact (empty body,
	// honest headers) that only the caller's verify callback catches —
	// so the fallback to the next replica is always exercised.
	handlers := make(map[string]func(w http.ResponseWriter))
	var mu sync.Mutex
	mk := func() *httptest.Server {
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			h := handlers[ts.URL]
			mu.Unlock()
			h(w)
		}))
		return ts
	}
	p1, p2 := mk(), mk()
	defer p1.Close()
	defer p2.Close()

	cl := New(Config{
		Self:     "http://self.invalid",
		Peers:    []string{p1.URL, p2.URL},
		Replicas: 2,
		Client:   ClientConfig{Timeout: time.Second, Backoff: time.Millisecond},
	})
	order := cl.fetchCandidates("k")
	if len(order) != 2 {
		t.Fatalf("candidates: %v", order)
	}
	mu.Lock()
	handlers[order[0]] = func(w http.ResponseWriter) { writeArtifact(w, nil) }
	handlers[order[1]] = func(w http.ResponseWriter) { writeArtifact(w, payload) }
	mu.Unlock()

	got, ok := cl.Fetch(context.Background(), "k", func(b []byte) error {
		if len(b) == 0 {
			return errors.New("empty artifact")
		}
		return nil
	})
	if !ok || string(got) != string(payload) {
		t.Fatalf("fetch did not fall through to good replica: ok=%v body=%q", ok, got)
	}
	st := cl.Stats()
	if st.FetchHits != 1 || st.FetchCorrupt != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestReplicateFanOut(t *testing.T) {
	var a, b atomic.Int64
	mk := func(n *atomic.Int64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPut {
				n.Add(1)
			}
			w.WriteHeader(http.StatusNoContent)
		}))
	}
	pa, pb := mk(&a), mk(&b)
	defer pa.Close()
	defer pb.Close()

	cl := New(Config{
		Self:     "http://self.invalid",
		Peers:    []string{pa.URL, pb.URL},
		Replicas: 2, // replica set == whole 3-node ring
		Client:   ClientConfig{Timeout: time.Second, Backoff: time.Millisecond},
	})
	cl.Replicate("prof|fp|classB", []byte("snapshot"))
	cl.Quiesce()
	if a.Load()+b.Load() != 2 {
		t.Fatalf("expected pushes to both peers, got a=%d b=%d", a.Load(), b.Load())
	}
	if st := cl.Stats(); st.Replicated != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// FuzzVerifyBody: arbitrary bodies and header values never panic the
// check, and it accepts exactly when both headers carry the body's
// checksums in the form a peer writes them.
func FuzzVerifyBody(f *testing.F) {
	body := []byte("artifact bytes")
	sum := sha256.Sum256(body)
	sha := hex.EncodeToString(sum[:])
	crc := strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10)
	f.Add(body, sha, crc)
	f.Add(body, strings.ToUpper(sha), crc)
	f.Add(body, sha, "0"+crc)
	f.Add(body[1:], sha, crc)
	f.Add([]byte{}, "", "")
	f.Add([]byte{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "0")
	f.Fuzz(func(t *testing.T, body []byte, sha, crc string) {
		h := make(http.Header)
		h.Set(HeaderSHA256, sha)
		h.Set(HeaderCRC32, crc)
		sum := sha256.Sum256(body)
		want := sha == hex.EncodeToString(sum[:]) &&
			crc == strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10)
		err := VerifyBody(body, h)
		if (err == nil) != want {
			t.Fatalf("VerifyBody(%d bytes, %q, %q) = %v, want accept=%v", len(body), sha, crc, err, want)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rejection %v is not ErrCorrupt", err)
		}
	})
}
