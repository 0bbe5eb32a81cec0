// Command asamapd serves community detection over HTTP: upload edge lists
// into a content-addressed graph registry, then issue detection requests
// that run on a bounded job queue and are answered from an LRU result cache
// with byte-exact determinism.
//
// Usage:
//
//	asamapd -addr :8715
//	asamapd -addr :8715 -queue 32 -jobs 4 -cache 512 -job-timeout 2m
//	asamapd -preload graph.txt             # register a graph at startup
//
// Replicated deployment — N replicas plus an optional stateless router that
// consistent-hashes graph hashes across them, replicates uploads to each
// key's owners, and fails over (ultimately to local compute) when owners
// are unreachable:
//
//	asamapd -addr :8701 -peers http://h1:8701,http://h2:8702 -self 0
//	asamapd -addr :8702 -peers http://h1:8701,http://h2:8702 -self 1
//	asamapd -addr :8700 -peers http://h1:8701,http://h2:8702 -router
//
// The -peer-fault-* flags point the internal/fault injector at the
// inter-replica paths for chaos drills; all peer traffic then flows through
// the seeded, deterministic fault schedule.
//
// Endpoints:
//
//	POST /v1/graphs[?directed=true]   upload an edge list, returns its hash
//	GET  /v1/graphs/{hash}            registered graph shape
//	GET  /v1/graphs/{hash}/data       canonical edge list (peer replication)
//	POST /v1/graphs/{hash}/delta      upload a delta batch onto a graph or
//	                                  version, returns the child version id
//	GET  /v1/versions/{id}            version lineage metadata
//	GET  /v1/versions/{id}/delta      the version's delta bytes (peer replication)
//	POST /v1/detect                   {"graph":"<hash or version id>","options":{...}};
//	                                  options.warm_start replays the lineage warm
//	GET  /healthz                     liveness + build info + registry/queue/cache stats
//	GET  /metrics                     the metrics snapshot as Prometheus text (latency histograms,
//	                                  kernel seconds, accumulator events, sweep gauges, cluster
//	                                  counters, Go runtime gauges, trace-drop counters)
//	GET  /metrics/snapshot            the same snapshot as JSON (cluster federation wire)
//	GET  /cluster/metrics[?format=json]  exact merge of every node's snapshot through the
//	                                  /metrics writer, with per-peer scrape-failure accounting
//	                                  (cluster mode)
//	GET  /cluster/status              replication/forwarding/breaker state (cluster mode)
//	GET  /debug/trace[?n=N]           last-N completed spans from the trace ring
//	GET  /debug/trace/{trace-id}      one distributed trace: merged across nodes on a cluster
//	                                  node (?format=chrome for a per-node-track Perfetto export)
//	GET  /debug/profile?kind=heap|cpu[&seconds=N]  one-shot pprof snapshot
//	GET  /debug/pprof/                Go profiling
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/serve"
	"github.com/asamap/asamap/internal/serve/cluster"
)

func main() {
	addr := flag.String("addr", ":8715", "listen address")
	queueCap := flag.Int("queue", 16, "max outstanding detection jobs (queued + running); excess requests get 429")
	jobs := flag.Int("jobs", 2, "detection jobs executed concurrently")
	cacheEntries := flag.Int("cache", 256, "result-cache capacity (entries)")
	maxUpload := flag.Int64("max-upload", 64<<20, "max edge-list upload size in bytes")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job wall-clock bound (0 = unbounded)")
	preload := flag.String("preload", "", "edge-list file to register at startup (optional)")
	preloadDirected := flag.Bool("preload-directed", false, "treat the preloaded edge list as directed")
	logLevel := flag.String("log-level", "info", "structured log level: debug | info | warn | error")
	traceRing := flag.Int("trace-ring", 4096, "completed spans retained for /debug/trace (0 = default)")

	peers := flag.String("peers", "", "comma-separated replica base URLs; enables cluster mode")
	self := flag.Int("self", -1, "this process's index in -peers (-1 with -router = stateless router)")
	router := flag.Bool("router", false, "run as a stateless router over -peers (no owned shard)")
	replication := flag.Int("replication", 2, "owners per graph hash")
	clusterSeed := flag.Uint64("cluster-seed", 0, "hash-ring placement seed (must match across the cluster)")
	peerTimeout := flag.Duration("peer-timeout", 5*time.Second, "per-attempt timeout for peer calls")
	peerRetries := flag.Int("peer-retries", 2, "retries after a failed peer attempt (negative = none)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive peer failures that trip its circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "how long a tripped breaker stays open (negative = zero)")

	faultSeed := flag.Uint64("peer-fault-seed", 1, "chaos: fault schedule seed for peer paths")
	faultDrop := flag.Float64("peer-fault-drop", 0, "chaos: per-message drop probability on peer paths")
	faultFail := flag.Float64("peer-fault-fail", 0, "chaos: per-message injected-5xx probability on peer paths")
	faultDup := flag.Float64("peer-fault-dup", 0, "chaos: per-message duplication probability on peer paths")
	faultDelay := flag.Float64("peer-fault-delay", 0, "chaos: per-message delay probability on peer paths")
	faultDelayFor := flag.Duration("peer-fault-delay-for", 50*time.Millisecond, "chaos: duration of an injected delay")
	flag.Parse()

	cfg := serve.DefaultConfig()
	cfg.QueueCapacity = *queueCap
	cfg.Workers = *jobs
	cfg.CacheEntries = *cacheEntries
	cfg.MaxUploadBytes = *maxUpload
	cfg.JobTimeout = *jobTimeout
	cfg.Logger = obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	cfg.TraceRing = *traceRing
	srv := serve.New(cfg)
	defer srv.Close()

	if *preload != "" {
		data, err := os.ReadFile(*preload)
		if err != nil {
			log.Fatalf("asamapd: preload: %v", err)
		}
		info, err := srv.Registry().Add(data, *preloadDirected)
		if err != nil {
			log.Fatalf("asamapd: preload %s: %v", *preload, err)
		}
		log.Printf("preloaded %s: hash=%s vertices=%d arcs=%d", *preload, info.Hash, info.Vertices, info.Arcs)
	}

	handler := srv.Handler()
	if *peers != "" {
		peerURLs := strings.Split(*peers, ",")
		for i := range peerURLs {
			peerURLs[i] = strings.TrimSpace(peerURLs[i])
		}
		nodeSelf := *self
		if *router {
			nodeSelf = -1
		} else if nodeSelf < 0 || nodeSelf >= len(peerURLs) {
			log.Fatalf("asamapd: -self %d out of range for %d peers (or pass -router)", nodeSelf, len(peerURLs))
		}
		ccfg := cluster.Config{
			Self:             nodeSelf,
			Peers:            peerURLs,
			Replication:      *replication,
			Seed:             *clusterSeed,
			PeerTimeout:      *peerTimeout,
			PeerRetries:      *peerRetries,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			Logger:           cfg.Logger,
		}
		fcfg := fault.Config{
			Seed:      *faultSeed,
			DropProb:  *faultDrop,
			FailProb:  *faultFail,
			DupProb:   *faultDup,
			DelayProb: *faultDelay,
		}
		if fcfg.Enabled() {
			inj, err := fault.New(fcfg)
			if err != nil {
				log.Fatalf("asamapd: peer fault config: %v", err)
			}
			from := nodeSelf
			if from < 0 {
				from = len(peerURLs) // the router's injector coordinate
			}
			ccfg.Transport = func(peer int) http.RoundTripper {
				return &fault.Transport{Inj: inj, From: from, To: peer, DelayFor: *faultDelayFor}
			}
			log.Printf("asamapd: CHAOS — peer paths run fault schedule seed=%d drop=%g fail=%g dup=%g delay=%g",
				*faultSeed, *faultDrop, *faultFail, *faultDup, *faultDelay)
		}
		node := cluster.NewNode(srv, ccfg)
		handler = node.Handler()
		role := fmt.Sprintf("replica %d", nodeSelf)
		if nodeSelf < 0 {
			role = "router"
		}
		log.Printf("asamapd: cluster mode — %s of %d peers, replication %d", role, len(peerURLs), ccfg.Replication)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("asamapd listening on %s (queue=%d jobs=%d cache=%d)", *addr, *queueCap, *jobs, *cacheEntries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("asamapd: %v", err)
		}
	case s := <-sig:
		log.Printf("asamapd: %v, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "asamapd: shutdown: %v\n", err)
		}
	}
}
