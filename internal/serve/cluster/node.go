package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/serve"
)

// Response headers the node adds so clients (and the chaos tier) can see how
// a request was routed.
const (
	// HeaderCluster reports the routing path: "local" (this node owned the
	// key and served it), "forwarded" (proxied to an owner), "peer-cache"
	// (adopted a sibling owner's cached result), or "degraded" (every owner
	// was unreachable and the node computed locally instead of failing).
	HeaderCluster = "X-Asamap-Cluster"
	// HeaderClusterOwner is the replica index that served a forwarded
	// request.
	HeaderClusterOwner = "X-Asamap-Cluster-Owner"
	// HeaderClusterSource is the replica index a peer-cache result came from.
	HeaderClusterSource = "X-Asamap-Cluster-Source"
	// HeaderForwarded marks a request already routed once by a cluster node.
	// A node receiving it serves the request itself, whatever its ring says —
	// a misconfigured ring must degrade to an extra local compute, never to a
	// forwarding loop.
	HeaderForwarded = "X-Asamap-Forwarded"
)

// Config shapes one cluster node.
type Config struct {
	// Self is this node's index in Peers, or -1 for a pure router: a node
	// that owns no shard, forwards every detect to the key's owners, and
	// computes locally only as a last resort when the whole owner set is
	// unreachable.
	Self int
	// Peers are the base URLs of every replica, indexed by identity. The
	// ring hashes over these indices, so every node must be configured with
	// the same ordered list. Empty means standalone: all requests are local.
	Peers []string
	// Replication is how many distinct owners each graph hash has (default
	// 2, clamped to [1, len(Peers)]).
	Replication int
	// Vnodes is the number of ring points per replica (default 64).
	Vnodes int
	// Seed drives ring placement and retry jitter. All nodes of one cluster
	// must share it.
	Seed uint64
	// PeerTimeout bounds one peer round trip (default 5s).
	PeerTimeout time.Duration
	// PeerRetries is how many times a transiently failed peer call is
	// re-sent after the first attempt (default 2; negative means none).
	PeerRetries int
	// PeerBackoff schedules the waits between retries.
	PeerBackoff Backoff
	// BreakerThreshold consecutive failures trip a peer's circuit breaker
	// (default 3); BreakerCooldown is how long it stays open before
	// admitting a half-open probe (default 2s; negative means zero — every
	// post-trip call is a probe, the deterministic shape chaos tests use).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock is injectable for deterministic tests; nil means the real clock.
	Clock clock.Clock
	// Logger receives the node's structured log; nil discards.
	Logger *slog.Logger
	// Transport returns the RoundTripper used to reach peer i; nil means
	// http.DefaultTransport everywhere. The chaos tier injects
	// fault.Transport (and crash gates) here.
	Transport func(peer int) http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Replication < 1 {
		c.Replication = 2
	}
	if len(c.Peers) > 0 && c.Replication > len(c.Peers) {
		c.Replication = len(c.Peers)
	}
	if c.Vnodes < 1 {
		c.Vnodes = 64
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	if c.PeerRetries < 0 {
		c.PeerRetries = 0
	} else if c.PeerRetries == 0 {
		c.PeerRetries = 2
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown < 0 {
		c.BreakerCooldown = 0
	} else if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger()
	}
	return c
}

// Node is one member of the replicated detection service: the placement a
// local serve.Server consults for routing, replication and on-demand fetches,
// plus the retry, breaker and degradation machinery behind it and the
// cluster-only routes. The server still reads, validates and answers every
// detect, upload and delta. A Node with no peers serves everything locally.
type Node struct {
	cfg         Config
	local       *serve.Server
	ring        *Ring
	peers       []*PeerClient   // index = replica identity; nil at Self and when standalone
	scrapeFails []atomic.Uint64 // per-peer /cluster/metrics scrape failures; same indexing as peers
	clk         clock.Clock
	logger      *slog.Logger
	handler     http.Handler

	forwarded      atomic.Uint64 // requests proxied to an owner
	failovers      atomic.Uint64 // forwards that fell through to a secondary owner
	degraded       atomic.Uint64 // requests served by local compute because every owner was unreachable
	peerCacheHits  atomic.Uint64 // results adopted from a sibling owner's cache
	peerCacheMiss  atomic.Uint64 // sibling cache probes that found nothing
	replFailures   atomic.Uint64 // graph and delta replications that could not reach an owner
	graphFetches   atomic.Uint64 // graphs pulled from a peer on demand
	versionFetches atomic.Uint64 // delta versions replayed from a peer on demand
}

// NewNode installs the cluster layer described by cfg as local's placement.
func NewNode(local *serve.Server, cfg Config) *Node {
	// Peer clients apply withDefaults themselves; hand them the caller's
	// config so the zero-vs-sentinel distinction (PeerRetries, BreakerCooldown)
	// is resolved exactly once — re-defaulting a normalized config would turn
	// a sentinel-derived zero back into the default.
	raw := cfg
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:    cfg,
		local:  local,
		clk:    cfg.Clock,
		logger: cfg.Logger,
	}
	if len(cfg.Peers) > 0 {
		n.ring = NewRing(len(cfg.Peers), cfg.Vnodes, cfg.Seed)
		n.peers = make([]*PeerClient, len(cfg.Peers))
		n.scrapeFails = make([]atomic.Uint64, len(cfg.Peers))
		for i, url := range cfg.Peers {
			if i == cfg.Self {
				continue
			}
			var rt http.RoundTripper
			if cfg.Transport != nil {
				rt = cfg.Transport(i)
			}
			n.peers[i] = NewPeerClient(i, url, rt, raw)
		}
	}
	local.SetPlacement(n)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/metrics", n.handleClusterMetrics)
	mux.HandleFunc("GET /cluster/status", n.handleStatus)
	mux.HandleFunc("GET /debug/trace/{id}", n.handleTraceByID)
	mux.Handle("/", local.Mux())
	// One middleware layer over the union: cluster-routed and locally served
	// requests share request IDs, root spans, and the request log.
	n.handler = local.Wrap(mux)
	return n
}

// Handler returns the node's HTTP handler.
func (n *Node) Handler() http.Handler { return n.handler }

// Close drains the local server.
func (n *Node) Close() { n.local.Close() }

// owners returns graphHash's owner preference order, or nil when standalone.
func (n *Node) owners(graphHash string) []int {
	if n.ring == nil {
		return nil
	}
	return n.ring.Owners(graphHash, n.cfg.Replication)
}

func (n *Node) isOwner(owners []int) bool {
	if n.cfg.Self < 0 {
		return false
	}
	for _, p := range owners {
		if p == n.cfg.Self {
			return true
		}
	}
	return false
}

// servesHere reports whether this node serves a detect for a graph with
// these owners itself: it owns the graph, the cluster is a single node, or a
// peer already routed the request here.
func (n *Node) servesHere(r *http.Request, owners []int) bool {
	return len(owners) == 0 || n.isOwner(owners) || r.Header.Get(HeaderForwarded) != ""
}

// markPath records the routing decision where operators can see it: the
// response header and the request's root span.
func (n *Node) markPath(w http.ResponseWriter, r *http.Request, path string) {
	w.Header().Set(HeaderCluster, path)
	// The routing path depends on the fault schedule, not on the request
	// alone, so it is a volatile span attribute.
	serve.RequestSpan(r.Context()).SetVolatileAttr("cluster.path", path)
}

// Forward is the router path: a node that does not own the graph proxies the
// detect to the key's owners in preference order. When the whole owner set
// is unreachable it marks the request degraded and leaves it to the local
// server — the client sees a result, never a routing 503.
func (n *Node) Forward(w http.ResponseWriter, r *http.Request, graph, key string, body []byte) bool {
	owners := n.owners(graph)
	if n.servesHere(r, owners) {
		return false
	}
	for i, owner := range owners {
		pc := n.peers[owner]
		if pc == nil {
			continue
		}
		hdr := http.Header{}
		hdr.Set("Content-Type", "application/json")
		hdr.Set(HeaderForwarded, "1")
		resp, err := pc.Do(r.Context(), http.MethodPost, "/v1/detect", hdr, body, key)
		switch {
		case err != nil || resp.Status >= 500 || resp.Status == http.StatusTooManyRequests:
			// Transient or down: try the next owner.
		case resp.Status == http.StatusNotFound:
			// The owner never received the graph (its replication was the
			// casualty of an earlier fault). Another owner — or the local
			// degradation path, which can fetch the graph — may still have
			// it, so a peer 404 is not authoritative.
		default:
			n.forwarded.Add(1)
			n.markPath(w, r, "forwarded")
			n.proxyResponse(w, resp, owner)
			return true
		}
		if i+1 < len(owners) {
			n.failovers.Add(1)
		}
		n.logger.Warn("cluster: owner unavailable, failing over",
			"owner", owner, "key", key, "error", errString(err, resp))
	}
	n.degraded.Add(1)
	n.markPath(w, r, "degraded")
	return false
}

// proxyResponse relays an owner's answer verbatim. The body is untouched —
// byte-replay determinism is the contract that makes verbatim proxying
// indistinguishable from local compute.
func (n *Node) proxyResponse(w http.ResponseWriter, resp *PeerResponse, owner int) {
	for _, h := range []string{"Content-Type", "X-Asamap-Cache", "X-Asamap-Elapsed", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderClusterOwner, strconv.Itoa(owner))
	w.WriteHeader(resp.Status)
	w.Write(resp.Body)
}

// Adopt is the owner path's first step: before computing, try to adopt the
// byte-exact result from a sibling owner's cache — replication means a
// sibling may have already paid for this exact key. A degraded request is
// served as it is, without probing.
func (n *Node) Adopt(w http.ResponseWriter, r *http.Request, graph, key string, cached bool) ([]byte, bool) {
	owners := n.owners(graph)
	if !n.servesHere(r, owners) {
		return nil, false
	}
	if !cached && len(owners) > 1 {
		if body, from, ok := n.peerCacheFetch(r.Context(), key, owners); ok {
			n.peerCacheHits.Add(1)
			n.markPath(w, r, "peer-cache")
			w.Header().Set(HeaderClusterSource, strconv.Itoa(from))
			return body, true
		}
		n.peerCacheMiss.Add(1)
	}
	n.markPath(w, r, "local")
	return nil, false
}

// peerCacheFetch probes the sibling owners' result caches for key and
// returns the first hit.
func (n *Node) peerCacheFetch(ctx context.Context, key string, owners []int) ([]byte, int, bool) {
	for _, p := range owners {
		if p == n.cfg.Self || n.peers[p] == nil {
			continue
		}
		resp, err := n.peers[p].Do(ctx, http.MethodGet, "/v1/cache/"+key, nil, nil, "cache|"+key)
		if err != nil || resp.Status != http.StatusOK {
			continue // a miss or an unreachable sibling just means we compute
		}
		return resp.Body, p, true
	}
	return nil, -1, false
}

// Replicate pushes a graph or delta upload to the ring owners of id so detect
// forwards land on replicas that already hold it. Only first-hand uploads
// fan out: a copy arriving from a peer carries the forwarded marker, or two
// owners would bounce it between each other indefinitely. Failures degrade,
// not fail: an owner fetches what it misses on demand when a detect arrives.
func (n *Node) Replicate(w http.ResponseWriter, r *http.Request, what, path, id string, body []byte) {
	n.markPath(w, r, "local")
	if r.Header.Get(HeaderForwarded) != "" {
		return
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", "text/plain")
	hdr.Set(HeaderForwarded, "1")
	for _, p := range n.owners(id) {
		if p == n.cfg.Self || n.peers[p] == nil {
			continue
		}
		resp, err := n.peers[p].Do(r.Context(), http.MethodPost, path, hdr, body, what+"|"+id)
		if err != nil || resp.Status >= 400 {
			n.replFailures.Add(1)
			n.logger.Warn("cluster: replication failed",
				"kind", what, "owner", p, "id", id, "error", errString(err, resp))
		}
	}
}

// Fetch materializes an id on demand, whatever it names: a base graph
// replicates as its canonical edge list, a delta version as its raw delta
// bytes applied onto a recursively fetched parent. The chained version hash
// guarantees the locally replayed lineage converges on the same id the
// sending replica holds.
func (n *Node) Fetch(ctx context.Context, id string) bool {
	if _, ok := n.local.Registry().Resolve(id); ok {
		return true
	}
	for _, p := range n.peerOrder(id) {
		resp, err := n.peers[p].Do(ctx, http.MethodGet, "/v1/versions/"+id+"/delta", nil, nil, "version|"+id)
		if err != nil || resp.Status != http.StatusOK {
			continue // not a version on this peer (or the peer is dark)
		}
		parent := resp.Header.Get("X-Asamap-Parent")
		if parent == "" || !n.Fetch(ctx, parent) {
			continue
		}
		if _, err := n.local.Registry().AddVersion(parent, resp.Body); err != nil {
			n.logger.Warn("cluster: fetched delta failed to apply",
				"peer", p, "version", id, "error", err.Error())
			continue
		}
		n.versionFetches.Add(1)
		return true
	}
	// Not served as a version anywhere reachable: try it as a base graph.
	return n.fetchGraph(ctx, id)
}

// peerOrder returns the reachable peers in preference order for key: ring
// owners first, then everyone else.
func (n *Node) peerOrder(key string) []int {
	seen := make([]bool, len(n.peers))
	order := make([]int, 0, len(n.peers))
	for _, p := range n.owners(key) {
		if p != n.cfg.Self && n.peers[p] != nil {
			seen[p] = true
			order = append(order, p)
		}
	}
	for p := range n.peers {
		if !seen[p] && p != n.cfg.Self && n.peers[p] != nil {
			order = append(order, p)
		}
	}
	return order
}

// fetchGraph replicates a graph on demand: ask its owners (then every other
// peer) for the canonical edge list and register it locally. Content
// addressing guarantees the re-registered graph has the same hash.
func (n *Node) fetchGraph(ctx context.Context, hash string) bool {
	for _, p := range n.peerOrder(hash) {
		resp, err := n.peers[p].Do(ctx, http.MethodGet, "/v1/graphs/"+hash+"/data", nil, nil, "graph|"+hash)
		if err != nil || resp.Status != http.StatusOK {
			continue
		}
		directed := resp.Header.Get("X-Asamap-Directed") == "true"
		if _, err := n.local.Registry().Add(resp.Body, directed); err != nil {
			n.logger.Warn("cluster: fetched graph failed to register",
				"peer", p, "graph", hash, "error", err.Error())
			continue
		}
		n.graphFetches.Add(1)
		return true
	}
	return false
}

// ClusterStats is the /cluster/status JSON.
type ClusterStats struct {
	Self            int                  `json:"self"`
	Peers           []string             `json:"peers"`
	Replication     int                  `json:"replication"`
	Forwarded       uint64               `json:"forwarded"`
	Failovers       uint64               `json:"failovers"`
	Degraded        uint64               `json:"degraded"`
	PeerCacheHits   uint64               `json:"peer_cache_hits"`
	PeerCacheMisses uint64               `json:"peer_cache_misses"`
	ReplFailures    uint64               `json:"replication_failures"`
	GraphFetches    uint64               `json:"graph_fetches"`
	VersionFetches  uint64               `json:"version_fetches"`
	PeerStats       map[string]PeerStats `json:"peer_stats,omitempty"`
	Breakers        map[string]string    `json:"breakers,omitempty"`
}

// Stats snapshots the node's cluster counters.
func (n *Node) Stats() ClusterStats {
	st := ClusterStats{
		Self:            n.cfg.Self,
		Peers:           n.cfg.Peers,
		Replication:     n.cfg.Replication,
		Forwarded:       n.forwarded.Load(),
		Failovers:       n.failovers.Load(),
		Degraded:        n.degraded.Load(),
		PeerCacheHits:   n.peerCacheHits.Load(),
		PeerCacheMisses: n.peerCacheMiss.Load(),
		ReplFailures:    n.replFailures.Load(),
		GraphFetches:    n.graphFetches.Load(),
		VersionFetches:  n.versionFetches.Load(),
	}
	if len(n.peers) > 0 {
		st.PeerStats = make(map[string]PeerStats)
		st.Breakers = make(map[string]string)
		for i, pc := range n.peers {
			if pc == nil {
				continue
			}
			id := strconv.Itoa(i)
			st.PeerStats[id] = pc.Stats()
			st.Breakers[id] = pc.Breaker().State().String()
		}
	}
	return st
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.Stats())
}

// AddMetrics adds the node's routing counters and each peer's client and
// breaker series to m; the local server calls it for every snapshot, so the
// node's /metrics, /metrics/snapshot and /cluster/metrics all carry them.
func (n *Node) AddMetrics(m serve.MetricsSnapshot) {
	m.Counters["cluster_forwarded_total"] = n.forwarded.Load()
	m.Counters["cluster_failovers_total"] = n.failovers.Load()
	m.Counters["cluster_degraded_total"] = n.degraded.Load()
	m.Counters["cluster_peer_cache_hits_total"] = n.peerCacheHits.Load()
	m.Counters["cluster_peer_cache_misses_total"] = n.peerCacheMiss.Load()
	m.Counters["cluster_replication_failures_total"] = n.replFailures.Load()
	m.Counters["cluster_graph_fetches_total"] = n.graphFetches.Load()
	m.Counters["cluster_version_fetches_total"] = n.versionFetches.Load()
	for i, pc := range n.peers {
		if pc == nil {
			continue
		}
		st, label := pc.Stats(), `{peer="`+strconv.Itoa(i)+`"}`
		m.Counters["cluster_peer_requests_total"+label] = st.Requests
		m.Counters["cluster_peer_failures_total"+label] = st.Failures
		m.Counters["cluster_peer_retries_total"+label] = st.Retries
		m.Counters["cluster_peer_timeouts_total"+label] = st.Timeouts
		m.Counters["cluster_breaker_trips_total"+label] = st.BreakerTrips
		m.Counters["cluster_breaker_rejects_total"+label] = st.BreakerRejects
		m.Gauges["cluster_breaker_open"+label] = 0
		if pc.Breaker().State() != BreakerClosed {
			m.Gauges["cluster_breaker_open"+label] = 1
		}
	}
}

// errString renders a peer failure for the log, whichever shape it took.
func errString(err error, resp *PeerResponse) string {
	if err != nil {
		return err.Error()
	}
	if resp != nil {
		return fmt.Sprintf("HTTP %d", resp.Status)
	}
	return "unknown"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
