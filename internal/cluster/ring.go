// Package cluster makes stochschedd horizontally scalable: a static peer
// list is arranged on a consistent-hash ring (virtual nodes, FNV-1a over
// the canonical spec hash — the same hash family the local cache shards
// by), and every node routes each request to the peer that owns its key
// range. Requests for a non-owned spec hash are forwarded to the owner
// through pkg/client with a forwarding-depth header that prevents loops,
// so the cluster behaves as one large sharded memoization cache with
// singleflight preserved end to end: the owner's local cache deduplicates
// concurrent forwards from every peer.
//
// The package has three parts:
//
//   - Ring (this file): the pure routing table. Every node builds the
//     identical ring from the same peer list, so all nodes agree on
//     ownership without any coordination protocol.
//   - Cluster (cluster.go): the runtime — per-peer clients, /readyz health
//     probing with passive failure detection, degraded-mode decisions
//     (serve locally when the owner is down rather than erroring), and
//     the per-peer forward/fallback/latency counters surfaced in
//     /v1/stats and /metrics.
//   - Store (state.go): versioned on-disk snapshot/restore of a node's
//     durable state (response cache + finished sweep jobs), so restarts
//     are warm and long sweeps survive deploys.
//
// Determinism contract: routing never changes WHAT is computed, only
// WHERE. Response bodies are pure functions of the canonical spec, so a
// forwarded response is byte-identical to the one the receiving node would
// have computed itself — which is what makes 1-node and N-node topologies
// indistinguishable at the byte level (docs/determinism.md).
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per peer of every cluster's
// ring. 64 points per peer keeps the maximum/minimum ownership share
// within a few tens of percent for small clusters while the ring stays a
// few hundred entries — binary-searchable in a handful of comparisons.
const DefaultVNodes = 64

// ringHash places a key (or virtual point) on the ring: 64-bit FNV-1a —
// the same function the service's cache uses to shard locally — followed
// by an avalanche finalizer. The finalizer matters here where it does not
// for cache sharding: sharding uses the low bits (modulo), but ring
// placement binary-searches on the full 64-bit value, and FNV-1a's high
// bits are poorly mixed for short keys with shared prefixes (like a peer
// URL plus a vnode counter) — without finalization, ownership shares
// stay skewed several-fold however many virtual nodes are used.
func ringHash(key string) uint64 {
	var x uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= 1099511628211
	}
	// 64-bit finalizer (murmur3's fmix64): full avalanche, so every input
	// bit reaches the high bits the ring search keys on.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccb
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Ring is a consistent-hash ring over a static peer list. It is immutable
// after construction and safe for concurrent use. Peers are identified by
// their base URL (e.g. "http://10.0.0.1:8080"); every node in a cluster
// must be constructed from the same peer set — order does not matter, the
// list is canonicalized — so all nodes compute identical ownership.
type Ring struct {
	peers  []string // sorted, deduplicated
	points []ringPoint
	vnodes int
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds the ring: vnodes virtual points per peer (<= 0 selects
// DefaultVNodes), each placed at FNV-1a("<peer>#<i>"). The peer list is
// sorted and must be non-empty and duplicate-free.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: peer %q listed twice", sorted[i])
		}
	}
	r := &Ring{peers: sorted, vnodes: vnodes, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	for _, p := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", p, i)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Colliding virtual points tie-break on peer name so every node
		// still builds the identical ring.
		return a.peer < b.peer
	})
	return r, nil
}

// Peers returns the canonicalized (sorted) peer list.
func (r *Ring) Peers() []string { return r.peers }

// VNodes returns the virtual-node count per peer.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the peer owning key: the first virtual point clockwise
// from FNV-1a(key), wrapping at the top of the hash space.
func (r *Ring) Owner(key string) string {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].peer
}

// Shares counts the keyspace share of each peer as owned virtual points —
// a cheap legibility proxy for ownership balance, surfaced in stats.
func (r *Ring) Shares() map[string]int {
	shares := make(map[string]int, len(r.peers))
	for _, p := range r.points {
		shares[p.peer]++
	}
	return shares
}
