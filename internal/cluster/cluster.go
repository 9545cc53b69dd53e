package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one fleet member's view of the cluster.
type Config struct {
	// Self is this node's advertised base URL (e.g.
	// "http://127.0.0.1:18981"). Self is always a ring member.
	Self string
	// Peers are the other members' base URLs. Including Self is
	// harmless (the ring dedupes).
	Peers []string
	// Replicas is R: how many successors beyond the primary hold a
	// copy of each artifact (replica set size R+1). 0 keeps every
	// artifact only where it was computed (and on its primary when
	// the primary computed it).
	Replicas int
	// Client tunes the peer HTTP client.
	Client ClientConfig
}

// Stats is the cluster's counter snapshot for /metrics.
type Stats struct {
	FetchHits      uint64 `json:"fetch_hits"`       // artifacts obtained from a peer
	FetchMisses    uint64 `json:"fetch_misses"`     // peers answering "not found"
	FetchErrors    uint64 `json:"fetch_errors"`     // transport/5xx failures talking to peers
	FetchCorrupt   uint64 `json:"fetch_corrupt"`    // responses rejected by verification
	Replicated     uint64 `json:"replicated"`       // successful replication pushes
	ReplicateError uint64 `json:"replicate_errors"` // failed replication pushes
}

// Cluster is one node's membership view: the ring, the peer client,
// and the replication fan-out. It implements runner.RemoteTier, so a
// Session wired to it gains the "peer" serving tier.
type Cluster struct {
	self     string
	ring     *Ring
	client   *Client
	replicas int

	wg sync.WaitGroup // in-flight async replication pushes

	fetchHits      atomic.Uint64
	fetchMisses    atomic.Uint64
	fetchErrors    atomic.Uint64
	fetchCorrupt   atomic.Uint64
	replicated     atomic.Uint64
	replicateError atomic.Uint64
}

// New builds a cluster view. An empty peer list is valid (a fleet of
// one: every lookup answers Self, Fetch always misses).
func New(cfg Config) *Cluster {
	members := append([]string{cfg.Self}, cfg.Peers...)
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	return &Cluster{
		self:     cfg.Self,
		ring:     NewRing(members),
		client:   NewClient(cfg.Client),
		replicas: cfg.Replicas,
	}
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Members returns every ring member in canonical order.
func (c *Cluster) Members() []string { return c.ring.Nodes() }

// Replicas returns R, the configured successor count.
func (c *Cluster) Replicas() int { return c.replicas }

// Client exposes the peer client (the service reads its health view).
func (c *Cluster) Client() *Client { return c.client }

// Primary returns the node owning key.
func (c *Cluster) Primary(key string) string { return c.ring.Primary(key) }

// ReplicaSet returns the R+1 nodes responsible for key, primary
// first.
func (c *Cluster) ReplicaSet(key string) []string { return c.ring.Lookup(key, c.replicas+1) }

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		FetchHits:      c.fetchHits.Load(),
		FetchMisses:    c.fetchMisses.Load(),
		FetchErrors:    c.fetchErrors.Load(),
		FetchCorrupt:   c.fetchCorrupt.Load(),
		Replicated:     c.replicated.Load(),
		ReplicateError: c.replicateError.Load(),
	}
}

// fetchCandidates orders the peers worth asking for key: the replica
// set first (they are supposed to hold it), then every remaining
// member (small fleets can afford the scatter, and it makes the
// remote tier reliable even before replication has caught up or when
// R is 0). Self is never a candidate.
func (c *Cluster) fetchCandidates(key string) []string {
	ordered := append([]string(nil), c.ReplicaSet(key)...)
	inSet := make(map[string]bool, len(ordered))
	for _, n := range ordered {
		inSet[n] = true
	}
	for _, n := range c.ring.Nodes() {
		if !inSet[n] {
			ordered = append(ordered, n)
		}
	}
	out := ordered[:0]
	for _, n := range ordered {
		if n != c.self {
			out = append(out, n)
		}
	}
	return out
}

// Fetch tries the fleet for the artifact stored under key, in replica
// order then scatter, skipping peers marked down. Each response is
// verified against its transfer headers; verify (optional) then
// checks the decoded content — a peer serving self-consistent but
// wrong bytes (the malicious-peer case) fails there and the next
// replica is tried. Returns the verified bytes and whether any peer
// supplied them. Fetch implements half of runner.RemoteTier.
func (c *Cluster) Fetch(ctx context.Context, key string, verify func([]byte) error) ([]byte, bool) {
	for _, peer := range c.fetchCandidates(key) {
		if ctx.Err() != nil {
			return nil, false
		}
		if !c.client.Available(peer) {
			continue
		}
		data, err := c.client.FetchSnapshot(ctx, peer, key)
		switch {
		case err == nil:
		case errors.Is(err, ErrNotFound):
			c.fetchMisses.Add(1)
			continue
		case errors.Is(err, ErrCorrupt):
			c.fetchCorrupt.Add(1)
			continue
		default:
			c.fetchErrors.Add(1)
			continue
		}
		if verify != nil {
			if err := verify(data); err != nil {
				// Transfer-consistent but semantically wrong: treat the
				// peer as unhealthy and keep looking.
				c.fetchCorrupt.Add(1)
				c.client.markFailure(peer)
				continue
			}
		}
		c.fetchHits.Add(1)
		return data, true
	}
	return nil, false
}

// Replicate pushes a freshly computed artifact to the other members
// of key's replica set, asynchronously (the computing request already
// paid seconds of simulation; it should not also wait on peers).
// Replicate implements the other half of runner.RemoteTier.
func (c *Cluster) Replicate(key string, data []byte) {
	for _, peer := range c.ReplicaSet(key) {
		if peer == c.self || !c.client.Available(peer) {
			continue
		}
		c.wg.Add(1)
		go func(peer string) {
			defer c.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := c.client.PushSnapshot(ctx, peer, key, data); err != nil {
				c.replicateError.Add(1)
				return
			}
			c.replicated.Add(1)
		}(peer)
	}
}

// Quiesce blocks until every in-flight replication push has finished
// (shutdown and deterministic tests).
func (c *Cluster) Quiesce() { c.wg.Wait() }
