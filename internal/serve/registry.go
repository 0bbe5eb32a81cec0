package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/asamap/asamap/internal/graph"
)

// GraphInfo describes a registered graph. Hash is the canonical content
// address (SHA-256 of the canonicalized edge form, see graph.CanonicalHash);
// Reused reports whether an upload matched an already-registered graph.
type GraphInfo struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Arcs     int    `json:"arcs"`
	Edges    int    `json:"edges"`
	Directed bool   `json:"directed"`
	Reused   bool   `json:"reused,omitempty"`
}

// RegistryStats is a point-in-time snapshot of registry activity.
type RegistryStats struct {
	Graphs        int    `json:"graphs"`         // distinct canonical graphs held
	Versions      int    `json:"versions"`       // delta-derived graph versions held
	Parses        uint64 `json:"parses"`         // edge-list parses performed
	RawHits       uint64 `json:"raw_hits"`       // uploads skipped by raw-byte hash
	CanonicalHits uint64 `json:"canonical_hits"` // parses that deduplicated into an existing graph
	DeltaApplies  uint64 `json:"delta_applies"`  // delta batches materialized into versions
	VersionHits   uint64 `json:"version_hits"`   // delta uploads deduplicated by chained hash
}

// Registry is the content-addressed graph store. Graphs are immutable once
// registered, so every job that references a hash shares one *graph.Graph
// with no copying and no locking on the read path.
//
// Two layers of deduplication:
//
//  1. raw-byte: the SHA-256 of the uploaded bytes (plus the directed flag,
//     which changes parsing) maps to the canonical hash, so re-uploading the
//     identical file skips parse + CSR build entirely;
//  2. canonical: graphs whose uploads differ textually (reordered lines,
//     split weights, comments) but canonicalize to the same edge form
//     collapse into one stored graph.
//
// Concurrent identical uploads are single-flighted: exactly one parse runs,
// the rest wait and share its result.
type Registry struct {
	mu          sync.RWMutex
	byCanonical map[string]*regEntry
	byRaw       map[string]string        // raw-byte key -> canonical hash
	versions    map[string]*versionEntry // chained delta hash -> version

	flight flightGroup[[]byte]

	parses        atomic.Uint64
	rawHits       atomic.Uint64
	canonicalHits atomic.Uint64
	deltaApplies  atomic.Uint64
	versionHits   atomic.Uint64
}

type regEntry struct {
	g    *graph.Graph
	info GraphInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byCanonical: make(map[string]*regEntry),
		byRaw:       make(map[string]string),
		versions:    make(map[string]*versionEntry),
	}
}

// rawKey addresses an upload by its exact bytes and parse mode.
func rawKey(data []byte, directed bool) string {
	sum := sha256.Sum256(data)
	mode := "u"
	if directed {
		mode = "d"
	}
	return hex.EncodeToString(sum[:]) + ":" + mode
}

// Add registers the edge list in data, parsing it only if neither the raw
// bytes nor the canonical form have been seen before. It returns the graph's
// content address and shape.
func (r *Registry) Add(data []byte, directed bool) (GraphInfo, error) {
	key := rawKey(data, directed)
	r.mu.RLock()
	canonical, ok := r.byRaw[key]
	if ok {
		entry := r.byCanonical[canonical]
		r.mu.RUnlock()
		r.rawHits.Add(1)
		info := entry.info
		info.Reused = true
		return info, nil
	}
	r.mu.RUnlock()

	// The flight value carries the canonical hash; losers of the race look
	// the entry up afterwards. dedup records whether this caller's own parse
	// (it is only written by the leader's closure) matched existing content.
	var dedup bool
	val, shared, err := r.flight.Do(key, func() ([]byte, error) {
		// Re-check under the write path: a previous flight for this key may
		// have finished between the RLock above and the flight start.
		r.mu.RLock()
		canonical, ok := r.byRaw[key]
		r.mu.RUnlock()
		if ok {
			r.rawHits.Add(1)
			dedup = true
			return []byte(canonical), nil
		}
		g, _, err := graph.ReadEdgeList(bytes.NewReader(data), directed)
		if err != nil {
			return nil, err
		}
		r.parses.Add(1)
		canonical = g.CanonicalHashString()
		r.mu.Lock()
		if _, exists := r.byCanonical[canonical]; exists {
			r.canonicalHits.Add(1)
			dedup = true
		} else {
			r.byCanonical[canonical] = &regEntry{
				g: g,
				info: GraphInfo{
					Hash:     canonical,
					Vertices: g.N(),
					Arcs:     g.M(),
					Edges:    g.NumEdges(),
					Directed: g.Directed(),
				},
			}
		}
		r.byRaw[key] = canonical
		r.mu.Unlock()
		return []byte(canonical), nil
	})
	if err != nil {
		return GraphInfo{}, err
	}
	r.mu.RLock()
	entry := r.byCanonical[string(val)]
	r.mu.RUnlock()
	if entry == nil {
		return GraphInfo{}, fmt.Errorf("serve: registry entry for %s vanished", val)
	}
	info := entry.info
	info.Reused = shared || dedup
	return info, nil
}

// Get returns the graph registered under the canonical hash.
func (r *Registry) Get(hash string) (*graph.Graph, GraphInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byCanonical[hash]
	if !ok {
		return nil, GraphInfo{}, false
	}
	return e.g, e.info, true
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	n := len(r.byCanonical)
	nv := len(r.versions)
	r.mu.RUnlock()
	return RegistryStats{
		Graphs:        n,
		Versions:      nv,
		Parses:        r.parses.Load(),
		RawHits:       r.rawHits.Load(),
		CanonicalHits: r.canonicalHits.Load(),
		DeltaApplies:  r.deltaApplies.Load(),
		VersionHits:   r.versionHits.Load(),
	}
}
