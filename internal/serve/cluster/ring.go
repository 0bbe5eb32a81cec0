// Package cluster replicates the asamapd detection service across N
// replicas behind a consistent-hash router. The unit of placement is the
// canonical graph hash: every detect request for a graph lands on the same
// small owner set, so their result caches concentrate instead of smearing
// across the fleet, and a replica that already computed a (graph, options,
// seed) coordinate can hand the byte-exact response to any sibling.
//
// The layer leans on the same property the single-node server does:
// detection is bit-deterministic in (graph canonical hash, options
// fingerprint, seed). A response computed by any replica is byte-identical
// to one computed locally, which makes forwarding, peer cache adoption, and
// local degradation all indistinguishable to the client — the chaos test
// tier asserts exactly that under seeded fault schedules.
//
// Failure handling is layered: every inter-replica call goes through a
// fault-injectable transport, a per-peer capped-exponential-backoff retry
// loop, and a per-peer circuit breaker; when a graph's whole owner set is
// unreachable the node degrades to computing locally (fetching the graph
// from any live peer on demand) instead of surfacing a 503. Degradations
// are visible in /metrics and as span attributes on the request.
package cluster

import (
	"sort"

	"github.com/asamap/asamap/internal/rng"
)

// Ring is a consistent-hash ring over replica indices. Each replica owns
// Vnodes points placed by seeded hashing, so key ownership is a pure
// function of (seed, replica count, vnodes) — every node in the cluster
// derives the identical ring without coordination, and a router restart
// cannot silently re-shard the key space.
type Ring struct {
	replicas int
	points   []ringPoint
}

type ringPoint struct {
	hash uint64
	peer int
}

// NewRing builds the ring for `replicas` replicas with `vnodes` points each
// (minimum 1 replica; vnodes < 1 takes 64). seed decorrelates independent
// clusters without changing any single cluster's determinism.
func NewRing(replicas, vnodes int, seed uint64) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	if vnodes < 1 {
		vnodes = 64
	}
	r := &Ring{replicas: replicas, points: make([]ringPoint, 0, replicas*vnodes)}
	for p := 0; p < replicas; p++ {
		// Chain the finalizer per replica, then per vnode: a high-quality
		// order-independent point stream with no shared RNG state.
		base := rng.Hash64(seed ^ rng.Hash64(uint64(p)+0x9e3779b97f4a7c15))
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: rng.Hash64(base + uint64(v)), peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer // total order even on hash ties
	})
	return r
}

// Owners returns the first n distinct replicas encountered walking clockwise
// from key's ring position — key's owner preference order. The first entry
// is the primary; the rest are the failover sequence. n is clamped to
// [1, replicas].
func (r *Ring) Owners(key string, n int) []int {
	if n < 1 {
		n = 1
	}
	if n > r.replicas {
		n = r.replicas
	}
	h := rng.HashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.replicas)
	out := make([]int, 0, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(start+k)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
