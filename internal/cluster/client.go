package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Artifact transfer headers. Every peer response (and replication
// push) carries the content's SHA-256 and CRC32 so the receiver can
// verify the body before trusting it; the store recomputes both again
// on admission. A peer whose headers disagree with its body — bit
// flips, truncation, or a lying peer — is treated as corrupt.
const (
	HeaderSHA256 = "X-Bioperf-Sha256"
	HeaderCRC32  = "X-Bioperf-Crc32"
)

// MaxArtifact bounds an artifact body on the wire, fetched or pushed.
// Stored artifacts are keyed by static PC and do not grow with the
// input size: the largest classB profile is a few kilobytes.
const MaxArtifact = 1 << 20

// ErrNotFound reports a peer that answered authoritatively that it
// does not hold the artifact. It is not a peer failure: the peer is
// healthy, it just never computed this key.
var ErrNotFound = errors.New("cluster: artifact not found on peer")

// ErrCorrupt reports a response whose body failed verification
// against its own headers, or is longer than MaxArtifact.
// Corrupt responses are never retried on the same peer — the caller
// moves to the next replica.
var ErrCorrupt = errors.New("cluster: peer response failed verification")

// ClientConfig tunes the peer client.
type ClientConfig struct {
	// Timeout bounds one HTTP attempt against one peer. Default 5s.
	Timeout time.Duration
	// Retries is the number of additional attempts after a transport
	// or 5xx failure (404 and verification failures never retry).
	// Zero or less means one attempt.
	Retries int
	// Backoff is the delay before the first retry, doubling per
	// attempt. Default 50ms.
	Backoff time.Duration
	// FailureThreshold marks a peer down after this many consecutive
	// failed operations. Default 3.
	FailureThreshold int
	// Cooloff is how long a down peer is skipped before being probed
	// again. Default 10s.
	Cooloff time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	c.Retries = max(c.Retries, 0)
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooloff <= 0 {
		c.Cooloff = 10 * time.Second
	}
	return c
}

// peerHealth is one peer's failure-marking view: consecutive failures
// and, once the threshold trips, the time the peer becomes eligible
// for another probe.
type peerHealth struct {
	failures  int
	downUntil time.Time
}

// PeerState is one peer's health snapshot for /healthz and tests.
type PeerState struct {
	Peer      string `json:"peer"`
	Failures  int    `json:"consecutive_failures"`
	Available bool   `json:"available"`
}

// Client is the peer-to-peer HTTP client: bounded per-peer timeout,
// limited retry with exponential backoff, body verification against
// the transfer headers, and a health view that stops hammering a
// down peer. Safe for concurrent use.
type Client struct {
	cfg ClientConfig
	hc  *http.Client
	now func() time.Time // injectable for cooloff tests

	mu     sync.Mutex
	health map[string]*peerHealth
}

// NewClient creates a peer client.
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg:    cfg,
		hc:     &http.Client{Timeout: cfg.Timeout},
		now:    time.Now,
		health: make(map[string]*peerHealth),
	}
}

// Available reports whether the peer is currently eligible for
// requests (not marked down, or its cooloff has expired).
func (c *Client) Available(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[peer]
	return h == nil || h.failures < c.cfg.FailureThreshold || !c.now().Before(h.downUntil)
}

// Peers returns the health snapshot of every peer the client has
// talked to, in no particular order.
func (c *Client) Peers() []PeerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PeerState, 0, len(c.health))
	for p, h := range c.health {
		out = append(out, PeerState{
			Peer:      p,
			Failures:  h.failures,
			Available: h.failures < c.cfg.FailureThreshold || !c.now().Before(h.downUntil),
		})
	}
	return out
}

func (c *Client) markSuccess(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.health, peer)
}

func (c *Client) markFailure(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[peer]
	if h == nil {
		h = &peerHealth{}
		c.health[peer] = h
	}
	h.failures++
	if h.failures >= c.cfg.FailureThreshold {
		h.downUntil = c.now().Add(c.cfg.Cooloff)
	}
}

// SnapshotPath returns the URL path serving the store key (the key is
// escaped so '|' and '/' survive routing).
func SnapshotPath(key string) string { return "/v1/snapshots/" + url.PathEscape(key) }

// FetchSnapshot retrieves the artifact stored under key on peer,
// verifying the body against the response's hash and CRC headers.
// ErrNotFound means the peer is healthy but lacks the key; ErrCorrupt
// means the body failed verification.
func (c *Client) FetchSnapshot(ctx context.Context, peer, key string) ([]byte, error) {
	return c.fetch(ctx, peer, SnapshotPath(key))
}

func (c *Client) fetch(ctx context.Context, peer, path string) ([]byte, error) {
	var lastErr error
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			backoff *= 2
		}
		data, retryable, err := c.fetchOnce(ctx, peer, path)
		if err == nil {
			c.markSuccess(peer)
			return data, nil
		}
		if errors.Is(err, ErrNotFound) {
			// Authoritative miss: the peer is fine, stop here.
			c.markSuccess(peer)
			return nil, err
		}
		c.markFailure(peer)
		lastErr = err
		if !retryable || ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

// fetchOnce performs one GET and full verification. retryable reports
// whether another attempt against the same peer could help (transport
// errors and 5xx: yes; corruption: no — same bytes would come back).
func (c *Client) fetchOnce(ctx context.Context, peer, path string) (data []byte, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+path, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, ErrNotFound
	case resp.StatusCode != http.StatusOK:
		return nil, resp.StatusCode >= 500, fmt.Errorf("cluster: peer %s: HTTP %d", peer, resp.StatusCode)
	}
	if resp.ContentLength > MaxArtifact {
		return nil, false, fmt.Errorf("%w: peer %s: %d-byte body exceeds %d", ErrCorrupt, peer, resp.ContentLength, MaxArtifact)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxArtifact+1))
	if err != nil {
		return nil, true, fmt.Errorf("cluster: peer %s: read body: %w", peer, err)
	}
	if len(body) > MaxArtifact {
		return nil, false, fmt.Errorf("%w: peer %s: body exceeds %d bytes", ErrCorrupt, peer, MaxArtifact)
	}
	if err := VerifyBody(body, resp.Header); err != nil {
		return nil, false, err
	}
	return body, false, nil
}

// VerifyBody checks an artifact body against its transfer headers,
// fetched or pushed: each must be the checksum exactly as a bioperfd
// peer writes it, lowercase hex SHA-256 and decimal CRC32. Missing
// headers are corruption too: an honest peer always sends them.
func VerifyBody(body []byte, h http.Header) error {
	sum := sha256.Sum256(body)
	if got, hdr := hex.EncodeToString(sum[:]), h.Get(HeaderSHA256); got != hdr {
		return fmt.Errorf("%w: sha256 %s, header %q", ErrCorrupt, got, hdr)
	}
	if got, hdr := strconv.FormatUint(uint64(crc32.ChecksumIEEE(body)), 10), h.Get(HeaderCRC32); got != hdr {
		return fmt.Errorf("%w: crc32 %s, header %q", ErrCorrupt, got, hdr)
	}
	return nil
}

// PushSnapshot replicates an artifact to peer under key (write-through
// replication of a freshly computed snapshot). The receiver verifies
// the body against the headers before admitting it.
func (c *Client) PushSnapshot(ctx context.Context, peer, key string, data []byte) error {
	var lastErr error
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		retryable, err := c.pushOnce(ctx, peer, key, data)
		if err == nil {
			c.markSuccess(peer)
			return nil
		}
		c.markFailure(peer)
		lastErr = err
		if !retryable || ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

func (c *Client) pushOnce(ctx context.Context, peer, key string, data []byte) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+SnapshotPath(key), bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	sum := sha256.Sum256(data)
	req.Header.Set(HeaderSHA256, hex.EncodeToString(sum[:]))
	req.Header.Set(HeaderCRC32, strconv.FormatUint(uint64(crc32.ChecksumIEEE(data)), 10))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return resp.StatusCode >= 500, fmt.Errorf("cluster: push to %s: HTTP %d", peer, resp.StatusCode)
	}
	return false, nil
}
