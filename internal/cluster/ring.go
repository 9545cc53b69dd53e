// Package cluster turns bioperfd into a fleet. The paper's premise —
// characterize a program once and reuse the profile everywhere — is
// single-node in the existing daemon: every cold fingerprint is
// simulated locally even when another node already paid for it. This
// package adds the fleet layer: a consistent-hash ring assigns each
// canonical request fingerprint a primary node and R replicas, a peer
// client fetches characterization artifacts from other nodes' stores
// (verified before admission) so the "remote" tier slots between
// trace replay and cold simulation, freshly computed snapshots are
// replicated write-through to the fingerprint's successors, and an
// overloaded node forwards to the fingerprint's primary instead of
// rejecting.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the per-node vnode count: enough that a
// three-node ring splits keys within a few percent of evenly, small
// enough that ring construction is trivially cheap.
const DefaultVirtualNodes = 64

type vnode struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is a consistent-hash ring over node addresses. Positions
// depend only on the node names (never on insertion order), so every
// fleet member computes identical assignments from the same peer
// list, however it was ordered on its command line. A Ring is
// immutable after construction and safe for concurrent use.
type Ring struct {
	nodes  []string
	vnodes []vnode
}

// NewRing builds a ring from the given node addresses with
// DefaultVirtualNodes virtual nodes per member. Duplicate addresses
// are collapsed.
func NewRing(nodes []string) *Ring {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, vnodes: make([]vnode, 0, len(uniq)*DefaultVirtualNodes)}
	for i, n := range uniq {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s|vnode=%d", n, v)), node: i})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Tie-break on node name so equal hashes (astronomically rare
		// but possible) still order identically on every member.
		return r.nodes[a.node] < r.nodes[b.node]
	})
	return r
}

// hash64 is the ring's position function: the first 8 bytes of
// SHA-256. Speed is irrelevant here (rings are built once, lookups
// hash one key); what matters is uniformity and that every node
// computes the same positions.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the ring members in canonical (sorted) order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of distinct members.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns up to n distinct nodes responsible for key, walking
// clockwise from the key's position: the first entry is the primary,
// the rest are its successors (the replica set). n <= 0 returns nil;
// n larger than the membership returns every node.
func (r *Ring) Lookup(key string, n int) []string {
	if n <= 0 || len(r.vnodes) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.vnodes) && len(out) < n; i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !taken[v.node] {
			taken[v.node] = true
			out = append(out, r.nodes[v.node])
		}
	}
	return out
}

// Primary returns the node owning key ("" on an empty ring).
func (r *Ring) Primary(key string) string {
	owners := r.Lookup(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}
