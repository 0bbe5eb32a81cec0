// Package serve is the network-facing layer of the repository: an HTTP
// service that accepts edge-list uploads into a content-addressed graph
// registry and serves community-detection requests from a bounded job queue
// through an LRU result cache.
//
// The design exploits two properties the rest of the repository already
// guarantees:
//
//   - graphs are immutable CSR structures, so one parsed graph can back any
//     number of concurrent detection runs (content addressing makes reuse
//     automatic: the SHA-256 of the canonicalized edges is the graph's name);
//   - detection is bit-deterministic in (graph, options fingerprint, seed)
//     regardless of worker count or steal schedule, so responses can be
//     cached and replayed as exact bytes — determinism is an API guarantee,
//     not just a test property.
//
// Backpressure is explicit: admission control bounds outstanding jobs, and
// saturated queues answer 429 with a Retry-After estimate instead of
// stalling the connection.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/trace"
)

// Config sizes the server. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// QueueCapacity bounds outstanding (queued + running) detection jobs;
	// the QueueCapacity+1st concurrent request is rejected with 429.
	QueueCapacity int
	// Workers is the number of detection jobs executed concurrently. Each
	// job internally parallelizes across the sweep-scheduler pool according
	// to its requested per-run worker count.
	Workers int
	// CacheEntries bounds the LRU result cache.
	CacheEntries int
	// MaxUploadBytes bounds one edge-list upload.
	MaxUploadBytes int64
	// JobTimeout bounds one detection run's wall clock (0 = unbounded);
	// it composes with the client's own disconnect/cancellation.
	JobTimeout time.Duration
	// RetryAfterPrior seeds the queue's mean-job-duration estimate used for
	// cold-start Retry-After headers, before the first completed job trains
	// the EWMA; non-positive takes DefaultRetryAfterPrior.
	RetryAfterPrior time.Duration
	// Clock is injectable for deterministic tests; nil means the real clock.
	Clock clock.Clock
	// Logger receives the structured request/error log; nil discards.
	Logger *slog.Logger
	// TraceRing bounds the span ring buffer behind /debug/trace; 0 takes the
	// default (4096 spans), negative disables span retention.
	TraceRing int
}

// DefaultConfig returns production-shaped sizing: 16 outstanding jobs, 2
// concurrent runs, 256 cached results, 64 MiB uploads, 5 minute job cap.
func DefaultConfig() Config {
	return Config{
		QueueCapacity:   16,
		Workers:         2,
		CacheEntries:    256,
		MaxUploadBytes:  64 << 20,
		JobTimeout:      5 * time.Minute,
		RetryAfterPrior: DefaultRetryAfterPrior,
		Clock:           clock.Real{},
	}
}

// Server wires the registry, queue, and cache behind an http.Handler.
type Server struct {
	cfg      Config
	clk      clock.Clock
	registry *Registry
	queue    *Queue
	cache    *ResultCache
	mux      *http.ServeMux
	started  time.Time
	logger   *slog.Logger
	tracer   *obs.Tracer      // span ring behind /debug/trace
	reqHist  *trace.Histogram // end-to-end request latency
	waitHist *trace.Histogram // detection-job queue wait
	build    BuildInfo
	idSalt   uint64        // salts generated request IDs across server instances
	rt       *runtimeStats // Go runtime gauges + GC pause histogram
	folded   trace.RunFold // accumulator events and sweep gauges of all successful runs
	// placement is nil on a single node; see SetPlacement.
	placement Placement

	runs      atomic.Uint64 // detection runs actually executed (not cache/coalesced)
	reqSeq    atomic.Uint64 // generated-request-ID counter
	profiling atomic.Bool   // guards the single-flight CPU profile
}

// New constructs a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.QueueCapacity < 1 {
		cfg.QueueCapacity = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 1
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 64 << 20
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	ring := cfg.TraceRing
	switch {
	case ring == 0:
		ring = 4096
	case ring < 0:
		ring = 1 // smallest retention: the tracer has no true "off" mode
	}
	started := cfg.Clock.Now()
	s := &Server{
		cfg:      cfg,
		clk:      cfg.Clock,
		registry: NewRegistry(),
		queue:    NewQueue(cfg.QueueCapacity, cfg.Workers, cfg.Clock, cfg.RetryAfterPrior),
		cache:    NewResultCache(cfg.CacheEntries),
		started:  started,
		logger:   logger,
		tracer:   obs.New(obs.Config{Clock: cfg.Clock, RingSize: ring}),
		reqHist:  trace.NewLatencyHistogram(),
		waitHist: trace.NewLatencyHistogram(),
		build:    readBuildInfo(),
		idSalt:   rng.Hash64(uint64(started.UnixNano())),
		rt:       newRuntimeStats(),
	}
	s.queue.SetWaitHist(s.waitHist)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleUpload)
	mux.HandleFunc("GET /v1/graphs/{hash}", s.handleGraphInfo)
	mux.HandleFunc("GET /v1/graphs/{hash}/data", s.handleGraphData)
	mux.HandleFunc("POST /v1/graphs/{hash}/delta", s.handleDeltaUpload)
	mux.HandleFunc("GET /v1/versions/{id}", s.handleVersionInfo)
	mux.HandleFunc("GET /v1/versions/{id}/delta", s.handleVersionDelta)
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics/snapshot", s.handleMetricsSnapshot)
	mux.HandleFunc("GET /debug/trace", s.handleTraceDebug)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /debug/profile", s.handleProfile)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler: the route mux wrapped in the
// observability middleware (request IDs, root spans, panic recovery, latency
// histogram, structured request log).
func (s *Server) Handler() http.Handler { return s.middleware(s.mux) }

// Mux returns the raw route mux without the observability middleware. The
// cluster node composes it under its own mux and applies Wrap exactly once
// around the union, so cluster-routed and locally served requests share one
// middleware layer (and Handler-style double wrapping is avoided).
func (s *Server) Mux() http.Handler { return s.mux }

// Placement spreads requests over the nodes of a cluster. A server without
// one is a single node and answers every request itself; cluster.NewNode
// installs one. The server consults it only for requests that passed
// validation, so a request gets the same answer from a single node and from
// any node of a cluster.
type Placement interface {
	// Forward offers a detect to the owners of its graph. It reports whether
	// w now holds an owner's answer; false means this node serves it.
	Forward(w http.ResponseWriter, r *http.Request, graph, key string, body []byte) bool
	// Adopt may return a sibling owner's cached response bytes for key, which
	// the server then serves as its own cache hit. cached reports that the
	// local cache already holds key.
	Adopt(w http.ResponseWriter, r *http.Request, graph, key string, cached bool) ([]byte, bool)
	// Fetch makes sure a graph or version id is in the local registry,
	// pulling it with its whole lineage from a peer when it is missing, and
	// reports whether it is there.
	Fetch(ctx context.Context, id string) bool
	// Replicate pushes an upload the registry accepted to the owners of id by
	// sending body to path on each; what names the upload ("upload" or
	// "delta").
	Replicate(w http.ResponseWriter, r *http.Request, what, path, id string, body []byte)
	// AddMetrics adds the placement's routing series to a snapshot of the
	// server's metrics, so /metrics and /metrics/snapshot carry them.
	AddMetrics(m MetricsSnapshot)
}

// SetPlacement installs p. Call it before the server handles any request.
func (s *Server) SetPlacement(p Placement) { s.placement = p }

// Wrap applies the server's observability middleware to an arbitrary handler.
func (s *Server) Wrap(next http.Handler) http.Handler { return s.middleware(next) }

// Close drains the job queue and releases the workers.
func (s *Server) Close() { s.queue.Close() }

// Registry exposes the graph registry (read-mostly; used by the CLI for
// preloading graphs at startup).
func (s *Server) Registry() *Registry { return s.registry }

// Runs reports how many detection runs actually executed.
//
//asalint:unreachable test oracle: the serve and serve/cluster tests count executed runs to prove cache hits and forwarding
func (s *Server) Runs() uint64 { return s.runs.Load() }

// DetectRequest is the body of POST /v1/detect.
type DetectRequest struct {
	// Graph is the canonical hash returned by POST /v1/graphs.
	Graph string `json:"graph"`
	// Options configures the run; absent fields take the library defaults.
	Options DetectOptions `json:"options"`
}

// DetectOptions is the wire form of infomap.Options. Zero values mean "use
// the default" (infomap.DefaultOptions); Seed 0 therefore maps to the
// default seed 1 — pass an explicit non-zero seed to vary results.
type DetectOptions struct {
	Accum          string  `json:"accum,omitempty"` // baseline | asa | gomap | hashgraph
	CamKB          int     `json:"cam_kb,omitempty"`
	Workers        int     `json:"workers,omitempty"` // per-run sweep workers; 0 keeps default 1
	MaxSweeps      int     `json:"max_sweeps,omitempty"`
	MinImprovement float64 `json:"min_improvement,omitempty"`
	MaxLevels      int     `json:"max_levels,omitempty"`
	OuterIters     int     `json:"outer_iters,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`
	Damping        float64 `json:"damping,omitempty"`
	Teleport       string  `json:"teleport,omitempty"` // recorded | unrecorded
	// WarmStart asks the server to seed the run from the parent version's
	// partition instead of starting cold. The target graph must be a delta
	// version (it needs a lineage); the server replays the lineage from the
	// base graph forward, so the response is a deterministic function of the
	// chain — byte-identical however many replicas or requests compute it.
	WarmStart bool `json:"warm_start,omitempty"`
	// FrontierHops bounds re-optimization to vertices within this many hops
	// of the delta's touched edges at each warm step. 0 means the default
	// (DefaultFrontierHops); negative is rejected. Only valid with WarmStart.
	FrontierHops int `json:"frontier_hops,omitempty"`
}

// DefaultFrontierHops is the warm-start locality radius when the request
// leaves frontier_hops unset: vertices within 2 hops of a touched edge are
// re-optimized, the rest keep their inherited module assignment.
const DefaultFrontierHops = 2

// maxCamKB bounds the wire cam_kb. The modeled CAM costs about 3.5× its size
// in memory per worker, so the bound keeps one request from asking for
// gigabytes; 64 KB is the largest CAM the repository's own sweeps model and
// 8× the paper's largest per-core CAM.
const maxCamKB = 64

// toOptions maps the wire options onto infomap.Options and validates the
// result: every error it returns is the client's. Workers is clamped to
// GOMAXPROCS — more workers than cores add no speed, results are
// bit-identical across worker counts, and Workers is not in the fingerprint,
// so the clamp changes neither response bytes nor cache keys.
func (d DetectOptions) toOptions() (infomap.Options, error) {
	opt := infomap.DefaultOptions()
	if d.CamKB > maxCamKB {
		return opt, fmt.Errorf("cam_kb %d exceeds %d", d.CamKB, maxCamKB)
	}
	if d.Accum != "" {
		kind, err := infomap.ParseAccumKind(d.Accum)
		if err != nil {
			return opt, err
		}
		opt.Kind = kind
	}
	// opt.ASAConfig is asa.DefaultConfig(); a request sizes only the CAM.
	if opt.Kind == infomap.ASA && d.CamKB > 0 {
		opt.ASAConfig.CapacityBytes = d.CamKB * 1024
	}
	if d.Teleport != "" {
		tp, err := infomap.ParseTeleportation(d.Teleport)
		if err != nil {
			return opt, err
		}
		opt.Teleport = tp
	}
	if d.Workers != 0 {
		opt.Workers = min(d.Workers, runtime.GOMAXPROCS(0))
	}
	if d.MaxSweeps != 0 {
		opt.MaxSweeps = d.MaxSweeps
	}
	if d.MinImprovement != 0 {
		opt.MinImprovement = d.MinImprovement
	}
	if d.MaxLevels != 0 {
		opt.MaxLevels = d.MaxLevels
	}
	if d.OuterIters != 0 {
		opt.OuterIters = d.OuterIters
	}
	if d.Seed != 0 {
		opt.Seed = d.Seed
	}
	if d.Damping != 0 {
		opt.Damping = d.Damping
	}
	if d.FrontierHops < 0 {
		return opt, fmt.Errorf("frontier_hops must be >= 0, got %d", d.FrontierHops)
	}
	if d.FrontierHops != 0 && !d.WarmStart {
		return opt, fmt.Errorf("frontier_hops requires warm_start")
	}
	// WarmStart and FrontierHops are NOT mapped onto opt here: the warm seed
	// partition and frontier are per-lineage-step inputs the server derives
	// while walking the version chain. opt carries only the wire-computable
	// base options, which is what makes the cache key derivable by routers
	// that cannot resolve the lineage.
	return opt, opt.Validate()
}

// effectiveHops resolves the wire frontier radius to its default.
func effectiveHops(hops int) int {
	if hops == 0 {
		return DefaultFrontierHops
	}
	return hops
}

// warmMarker is the cache-key suffix distinguishing a warm-start result from
// the cold result on the same (version, options, seed) coordinates.
func warmMarker(hops int) string {
	return "|w" + strconv.Itoa(hops)
}

// AccumCounters is the deterministic slice of the run's accumulator
// telemetry: the four CAM counters of the paper's evaluation are sums over
// per-vertex accumulator sessions, invariant across worker counts and steal
// schedules, so they are safe inside the byte-replayable response body.
// (Schedule-dependent counters like chain hops stay out — they would break
// the byte-identical cache-replay contract.)
type AccumCounters struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	OverflowKV uint64 `json:"overflow_kv"`
}

// DetectResponse is the body of a successful POST /v1/detect. It carries
// only deterministic fields — no wall-clock values — so identical requests
// yield byte-identical bodies whether computed, cached, or coalesced.
// Timing travels in the X-Asamap-Elapsed response header instead.
type DetectResponse struct {
	Graph              string        `json:"graph"`
	Fingerprint        string        `json:"fingerprint"`
	Seed               uint64        `json:"seed"`
	NumModules         int           `json:"num_modules"`
	Codelength         float64       `json:"codelength"`
	OneLevelCodelength float64       `json:"one_level_codelength"`
	Levels             int           `json:"levels"`
	Sweeps             int           `json:"sweeps"`
	Moves              uint64        `json:"moves"`
	Accum              AccumCounters `json:"accum"`
	Membership         []uint32      `json:"membership"`
	// Warm is present only on warm-start responses, keeping cold response
	// bodies byte-identical to those of servers that never saw a delta.
	Warm *WarmInfo `json:"warm,omitempty"`
}

// WarmInfo records how a warm-start run was seeded. Every field is a
// deterministic function of the version lineage and the request options, so
// it is safe inside the byte-replayable response body.
type WarmInfo struct {
	Parent       string `json:"parent"`        // version or base the seed partition came from
	Base         string `json:"base"`          // root of the lineage that was replayed
	Depth        int    `json:"depth"`         // deltas between base and this version
	FrontierHops int    `json:"frontier_hops"` // effective locality radius
	FrontierSize int    `json:"frontier_size"` // vertices re-optimized at the leaf level
	Frozen       int    `json:"frozen"`        // vertices that kept their inherited module
}

// detectKey joins the three coordinates that fully determine a response body.
func detectKey(graphHash, fingerprint string, seed uint64) string {
	return graphHash + "|" + fingerprint + "|" + strconv.FormatUint(seed, 10)
}

// prepare validates a decoded detect request and derives its run options,
// their fingerprint, and the result-cache key: canonical graph hash, options
// fingerprint, and effective seed. Because a run is bit-deterministic given
// this key, it is also the replication unit a cluster shards and the
// coordinate peer cache fetches address. For warm-start requests the key
// gains a "|w<hops>" suffix derived from the wire options alone — a router
// can compute it without resolving the version lineage, even though the warm
// seed partition itself is lineage-derived.
func (req DetectRequest) prepare() (opt infomap.Options, fp, key string, err error) {
	opt, err = req.Options.toOptions()
	if err != nil {
		return opt, "", "", err
	}
	fp = opt.Fingerprint()
	key = detectKey(req.Graph, fp, opt.Seed)
	if req.Options.WarmStart {
		key += warmMarker(effectiveHops(req.Options.FrontierHops))
	}
	return opt, fp, key, nil
}

// decodeDetect strictly decodes one detect request: unknown fields and any
// data after the JSON object are rejected. Trailing whitespace is accepted.
func decodeDetect(body []byte) (DetectRequest, error) {
	var req DetectRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	// A second decode sees EOF only when nothing but whitespace follows;
	// dec.More would report a stray "}" as the end of the input.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return req, errors.New("data after the JSON object")
	}
	return req, nil
}

// readBody reads a request body of at most limit bytes. On failure it
// answers the request itself — 413 "<what> exceeds N bytes" past the limit,
// 400 otherwise — and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return data, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s exceeds %d bytes", what, tooLarge.Limit))
	} else {
		httpError(w, http.StatusBadRequest, err.Error())
	}
	return nil, false
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	directed := false
	switch v := r.URL.Query().Get("directed"); v {
	case "", "false", "0":
	case "true", "1":
		directed = true
	default:
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad directed value %q", v))
		return
	}
	data, ok := readBody(w, r, s.cfg.MaxUploadBytes, "upload")
	if !ok {
		return
	}
	info, err := s.registry.Add(data, directed)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	path := "/v1/graphs"
	if directed {
		path += "?directed=true"
	}
	s.stored(w, r, "upload", path, info.Hash, data, info.Reused, info)
}

// stored answers an accepted graph or delta upload — 201 for a new entry,
// 200 for a re-upload — after handing it to the placement for replication.
func (s *Server) stored(w http.ResponseWriter, r *http.Request, what, path, id string, data []byte, reused bool, info any) {
	if s.placement != nil {
		s.placement.Replicate(w, r, what, path, id, data)
	}
	status := http.StatusCreated
	if reused {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	_, info, ok := s.registry.Get(r.PathValue("hash"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown graph hash")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleGraphData streams the canonical edge list of a registered graph, the
// transfer format peers use to replicate graphs on demand: re-registering
// the download yields the same canonical hash on the receiving side.
func (s *Server) handleGraphData(w http.ResponseWriter, r *http.Request) {
	g, info, ok := s.registry.Get(r.PathValue("hash"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown graph hash")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Asamap-Directed", strconv.FormatBool(info.Directed))
	if err := g.WriteEdgeList(w); err != nil {
		// Headers are gone; the broken stream is the only signal left.
		requestLogger(r.Context(), s.logger).Warn("graph data stream failed",
			"graph", info.Hash, "error", err.Error())
	}
}

// handleDeltaUpload applies a delta-edge batch to a registered graph or
// version, materializing a new version addressed by the chained delta hash.
// Re-uploading an identical delta onto the same parent answers 200 with the
// existing version; a new version answers 201. On a cluster the parent may
// live only on other nodes (the ring places versions by their own ids, not
// their parents'), so a missing parent is fetched with its lineage first.
// Chained hashing makes replication idempotent and order-safe: every node
// that applies the same delta to the same parent derives the same version id.
func (s *Server) handleDeltaUpload(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, s.cfg.MaxUploadBytes, "delta")
	if !ok {
		return
	}
	parent := r.PathValue("hash")
	if s.placement != nil {
		s.placement.Fetch(r.Context(), parent)
	}
	info, err := s.registry.AddVersion(parent, data)
	if err != nil {
		if errors.Is(err, ErrUnknownParent) {
			httpError(w, http.StatusNotFound, "unknown parent graph or version")
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.stored(w, r, "delta", "/v1/graphs/"+parent+"/delta", info.ID, data, info.Reused, info)
}

func (s *Server) handleVersionInfo(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.Version(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown version id")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleVersionDelta streams the exact delta bytes that produced a version —
// the replication transfer format: a peer applying these bytes to the same
// parent (named in the X-Asamap-Parent header) derives the same version id.
func (s *Server) handleVersionDelta(w http.ResponseWriter, r *http.Request) {
	delta, info, ok := s.registry.VersionDelta(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown version id")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Asamap-Parent", info.Parent)
	w.WriteHeader(http.StatusOK)
	w.Write(delta)
}

// handleCachePeek serves the cached response bytes for a detect key, or 404.
// It never computes: peers use it to harvest each other's result caches
// before paying for a recompute.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.cache.get(r.PathValue("key"))
	if !ok {
		httpError(w, http.StatusNotFound, "key not cached")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Asamap-Cache", string(CacheHit))
	w.WriteHeader(http.StatusOK)
	w.Write(ent.body)
}

// MaxDetectBodyBytes bounds one detect request body.
const MaxDetectBodyBytes = 1 << 20

// handleDetect is the one detect pipeline of a single node and of every
// cluster node: a bounded read, one strict decode, option validation and the
// cache key, then the placement's routing, and only then the graph and the
// run. Every rejection comes before the placement, so an invalid request
// costs no peer call and gets the same answer on any node.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r, MaxDetectBodyBytes, "detect request")
	if !ok {
		return
	}
	req, err := decodeDetect(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	opt, fp, key, err := req.prepare()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An empty graph names nothing a peer could hold: it is routed nowhere.
	if p := s.placement; p != nil && req.Graph != "" {
		if p.Forward(w, r, req.Graph, key, raw) {
			return
		}
		_, cached := s.cache.get(key)
		if body, ok := p.Adopt(w, r, req.Graph, key, cached); ok {
			// Byte-replay determinism makes a sibling's bytes
			// indistinguishable from a local compute.
			s.cache.put(key, body)
		}
		// A forwarded detect can land before the graph's (or version
		// lineage's) replication did — or ever could; its uploader may
		// have died.
		p.Fetch(r.Context(), req.Graph)
	}
	g, ok := s.registry.Resolve(req.Graph)
	if !ok {
		httpError(w, http.StatusNotFound,
			"unknown graph hash or version id (upload via POST /v1/graphs first)")
		return
	}
	// Nest the run's span tree under this request's root span. Tracing is
	// excluded from the fingerprint, so the cache key is unaffected.
	opt.Trace = requestSpan(r.Context())

	start := s.clk.Now()
	var body []byte
	var outcome CacheOutcome
	if req.Options.WarmStart {
		body, outcome, err = s.warmDetect(r.Context(), req.Graph, opt, fp,
			effectiveHops(req.Options.FrontierHops))
	} else {
		// A cold result is cached as bytes only: most are never a warm
		// parent, and one that becomes one is decoded once on first use.
		var ent cacheEntry
		ent, outcome, err = s.cache.GetOrCompute(key,
			func() (cacheEntry, error) {
				res, err := s.computeDetect(r.Context(), g, opt)
				if err != nil {
					return cacheEntry{}, err
				}
				body, err := marshalDetect(req.Graph, fp, opt.Seed, res, nil)
				return cacheEntry{body: body}, err
			})
		body = ent.body
	}
	if err != nil {
		requestLogger(r.Context(), s.logger).Warn("detect failed",
			"graph", req.Graph, "error", err.Error())
		s.writeDetectError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Asamap-Cache", string(outcome))
	w.Header().Set("X-Asamap-Elapsed", s.clk.Since(start).String())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// computeDetect runs one detection job through the bounded queue, honoring
// the configured job timeout, and folds its events and gauges into the
// server-wide total.
func (s *Server) computeDetect(ctx context.Context, g *graph.Graph, opt infomap.Options) (*infomap.Result, error) {
	jobCtx := ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(jobCtx, s.cfg.JobTimeout)
		defer cancel()
	}
	var res *infomap.Result
	handle, err := s.queue.Submit(jobCtx, func(ctx context.Context) error {
		s.runs.Add(1)
		var runErr error
		res, runErr = infomap.RunContext(ctx, g, opt)
		return runErr
	})
	if err != nil {
		return nil, err
	}
	if err := handle.Wait(jobCtx); err != nil {
		return nil, err
	}
	// Fold the run's accumulator events and sweep gauges into /metrics.
	s.folded.Add(res.TotalStats(), res.SweepLog)
	return res, nil
}

// marshalDetect renders the deterministic response body for one run. fp is
// the wire-options fingerprint (warm steps keep the base fingerprint in the
// body; the warm seed itself is committed by the version id in the key).
func marshalDetect(graphID, fp string, seed uint64, res *infomap.Result, warm *WarmInfo) ([]byte, error) {
	total := res.TotalStats()
	return json.Marshal(DetectResponse{
		Graph:              graphID,
		Fingerprint:        fp,
		Seed:               seed,
		NumModules:         res.NumModules,
		Codelength:         res.Codelength,
		OneLevelCodelength: res.OneLevelCodelength,
		Levels:             res.Levels,
		Sweeps:             res.Sweeps,
		Moves:              res.Moves,
		Accum: AccumCounters{
			Hits:       total.Hits,
			Misses:     total.Misses,
			Evictions:  total.Evictions,
			OverflowKV: total.OverflowKV,
		},
		Membership: res.Membership,
		Warm:       warm,
	})
}

// warmEntry caches a warm-walk run's bytes with its partition, so the next
// lineage step seeds from it without decoding them.
func warmEntry(body []byte, res *infomap.Result) cacheEntry {
	return cacheEntry{body: body, part: &partition{membership: res.Membership, modules: res.NumModules}}
}

// errWarmNeedsVersion rejects warm_start on a graph with no parent lineage.
var errWarmNeedsVersion = errors.New(
	"warm_start requires a delta version (the graph has no parent lineage)")

// warmDetect replays the target's version lineage base→target, seeding each
// step from its parent's partition and re-optimizing only vertices within
// the frontier radius of that step's touched edges. Every step is cached
// under its own key — the base under the ordinary cold key, each version
// under its warm key — so an incremental update after k prior deltas costs
// one warm run, not k, and the whole walk is a deterministic function of the
// lineage: byte-identical wherever and whenever it is recomputed.
func (s *Server) warmDetect(ctx context.Context, target string, opt infomap.Options, fp string, hops int) ([]byte, CacheOutcome, error) {
	lineage, ok := s.registry.Lineage(target)
	if !ok || len(lineage) < 2 {
		return nil, "", errWarmNeedsVersion
	}
	base := lineage[0]
	bg, okb := s.registry.Resolve(base)
	if !okb {
		return nil, "", fmt.Errorf("serve: lineage base %s vanished", base)
	}
	// Base step: a plain cold run under the ordinary cold key, so a prior
	// cold detect on the base graph is reused as-is (and vice versa).
	key := detectKey(base, fp, opt.Seed)
	ent, outcome, err := s.cache.GetOrCompute(key, func() (cacheEntry, error) {
		res, err := s.computeDetect(ctx, bg, opt)
		if err != nil {
			return cacheEntry{}, err
		}
		body, err := marshalDetect(base, fp, opt.Seed, res, nil)
		return warmEntry(body, res), err
	})
	if err != nil {
		return nil, "", err
	}
	for i := 1; i < len(lineage); i++ {
		vid := lineage[i]
		vg, touched, okv := s.registry.VersionGraph(vid)
		if !okv {
			return nil, "", fmt.Errorf("serve: lineage step %s vanished", vid)
		}
		info, _ := s.registry.Version(vid)
		parentKey, parentEnt, parentID := key, ent, lineage[i-1]
		key = detectKey(vid, fp, opt.Seed) + warmMarker(hops)
		ent, outcome, err = s.cache.GetOrCompute(key, func() (cacheEntry, error) {
			parent, err := s.cache.partitionOf(parentKey, parentEnt)
			if err != nil {
				return cacheEntry{}, err
			}
			stepOpt := opt
			stepOpt.WarmStart = infomap.WarmSeed(parent.membership, parent.modules, vg.N())
			stepOpt.FrontierSeeds = touched
			stepOpt.FrontierHops = hops
			res, err := s.computeDetect(ctx, vg, stepOpt)
			if err != nil {
				return cacheEntry{}, err
			}
			body, err := marshalDetect(vid, fp, opt.Seed, res, &WarmInfo{
				Parent:       parentID,
				Base:         base,
				Depth:        info.Depth,
				FrontierHops: hops,
				FrontierSize: res.FrontierSize,
				Frozen:       res.FrozenVertices,
			})
			return warmEntry(body, res), err
		})
		if err != nil {
			return nil, "", err
		}
	}
	return ent.body, outcome, nil
}

// writeDetectError maps queue and context failures onto HTTP statuses.
func (s *Server) writeDetectError(w http.ResponseWriter, err error) {
	var full *ErrQueueFull
	switch {
	case errors.Is(err, errWarmNeedsVersion):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &full):
		secs := int(full.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrQueueClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "detection run exceeded the job timeout")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status code is a formality for logs.
		httpError(w, 499, "request canceled")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// healthPayload is the /healthz body.
type healthPayload struct {
	Status        string        `json:"status"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Build         BuildInfo     `json:"build"`
	Registry      RegistryStats `json:"registry"`
	Queue         QueueStats    `json:"queue"`
	Cache         CacheStats    `json:"cache"`
	Runs          uint64        `json:"runs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthPayload{
		Status:        "ok",
		UptimeSeconds: s.clk.Since(s.started).Seconds(),
		Build:         s.build,
		Registry:      s.registry.Stats(),
		Queue:         s.queue.Stats(),
		Cache:         s.cache.Stats(),
		Runs:          s.runs.Load(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
