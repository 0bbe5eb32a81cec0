// Command asaload drives open-loop detection traffic against an asamapd
// endpoint (single server or router tier) and writes a throughput/latency
// profile with exact quantiles of the raw per-request latencies. It exits
// non-zero, after writing the profile, when any request errored: a
// transport failure or a status other than 200 and 429.
//
// Open loop means arrivals are scheduled by the configured rate, not by
// completions: when the service slows down, requests pile up (bounded by
// -inflight; arrivals beyond the bound are counted as shed, not silently
// dropped), which is how real traffic exercises the queue's backpressure.
//
// Usage:
//
//	asaload -target http://localhost:8715 -rate 100 -duration 10s
//	asaload -self-serve -rate 200 -duration 5s -out BENCH_serve.json
//	asaload -self-serve -self-replicas 3 -fault-drop 0.1 -fault-fail 0.1
//	asaload -self-serve -self-replicas 3 -profile-out prof -trace-out trace.json
//
// -profile-out captures pprof artifacts next to the profile: a CPU profile
// overlapping the load window and a heap snapshot after it, both via the
// service's GET /debug/profile endpoint. -trace-out fetches the merged
// cluster trace of one driven request (Chrome/Perfetto JSON) — with
// -self-replicas it shows the request crossing router and owner tracks.
//
// With -self-serve, asaload hosts the service in-process on loopback
// listeners — zero external dependencies, which is what the CI chaos-smoke
// job uses. -self-replicas N stands up N replica nodes behind a router so
// the profile covers the forwarding/replication paths; the -fault-* flags
// then point the internal/fault injector at the inter-replica wire.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/serve"
	"github.com/asamap/asamap/internal/serve/cluster"
)

func main() {
	target := flag.String("target", "", "endpoint base URL; empty requires -self-serve")
	selfServe := flag.Bool("self-serve", false, "host the service in-process on loopback (CI mode)")
	selfReplicas := flag.Int("self-replicas", 0, "with -self-serve: replica count behind an in-process router (0 = single server)")
	queueCap := flag.Int("queue", 16, "self-serve: job-queue capacity")
	jobs := flag.Int("jobs", 2, "self-serve: concurrent detection jobs")

	faultSeed := flag.Uint64("fault-seed", 1, "self-serve cluster: fault schedule seed")
	faultDrop := flag.Float64("fault-drop", 0, "self-serve cluster: per-message drop probability")
	faultFail := flag.Float64("fault-fail", 0, "self-serve cluster: per-message injected-5xx probability")
	faultDup := flag.Float64("fault-dup", 0, "self-serve cluster: per-message duplication probability")

	nVerts := flag.Int("n", 2000, "vertices per generated LFR graph")
	mu := flag.Float64("mu", 0.3, "LFR mixing parameter")
	nGraphs := flag.Int("graphs", 2, "distinct graphs to upload and spread load over")
	seeds := flag.Int("seeds", 8, "distinct detection seeds per graph (cache-miss diversity)")
	genSeed := flag.Uint64("gen-seed", 7, "graph-generator seed")

	rate := flag.Float64("rate", 50, "open-loop arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	inflight := flag.Int("inflight", 256, "max concurrent in-flight requests; arrivals beyond are shed")
	out := flag.String("out", "BENCH_serve.json", `profile output path ("-" = stdout)`)
	profileOut := flag.String("profile-out", "", "pprof artifact path prefix: captures <prefix>.cpu.pprof during the run and <prefix>.heap.pprof after it")
	traceOut := flag.String("trace-out", "", "write the merged Chrome trace of one driven request (cluster-stitched when load hits a router) to this path")
	flag.Parse()

	if *target == "" && !*selfServe {
		fmt.Fprintln(os.Stderr, "asaload: provide -target or -self-serve")
		os.Exit(2)
	}
	base := *target
	if *selfServe {
		stop, url, err := startSelfServe(*selfReplicas, *queueCap, *jobs, fault.Config{
			Seed:     *faultSeed,
			DropProb: *faultDrop,
			FailProb: *faultFail,
			DupProb:  *faultDup,
		})
		if err != nil {
			fatal(err)
		}
		defer stop()
		base = url
	}

	hashes, err := uploadGraphs(base, *nGraphs, *nVerts, *mu, *genSeed)
	if err != nil {
		fatal(err)
	}

	// The CPU profile must overlap the load window, so it runs concurrently
	// with the open loop; the heap snapshot is taken after, when the steady
	// state's allocations are what remain live.
	cpuDone := startCPUProfile(base, *profileOut, *duration)

	res, traceID := drive(base, hashes, *seeds, *rate, *duration, *inflight)

	if cpuDone != nil {
		<-cpuDone
	}
	if *profileOut != "" {
		if err := fetchToFile(base+"/debug/profile?kind=heap", *profileOut+".heap.pprof"); err != nil {
			fmt.Fprintf(os.Stderr, "asaload: heap profile: %v\n", err)
		}
	}
	if *traceOut != "" {
		if traceID == "" {
			fmt.Fprintln(os.Stderr, "asaload: -trace-out: no request returned a trace id")
		} else if err := fetchToFile(base+"/debug/trace/"+traceID+"?format=chrome", *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "asaload: trace fetch: %v\n", err)
		}
	}
	res.Config = map[string]any{
		"target":        *target,
		"self_serve":    *selfServe,
		"self_replicas": *selfReplicas,
		"graphs":        *nGraphs,
		"vertices":      *nVerts,
		"mu":            *mu,
		"seeds":         *seeds,
		"rate_rps":      *rate,
		"duration":      duration.String(),
		"inflight_cap":  *inflight,
		"fault": map[string]any{
			"seed": *faultSeed, "drop": *faultDrop, "fail": *faultFail, "dup": *faultDup,
		},
	}
	res.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	res.Graphs = hashes

	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "asaload: %d sent, %d ok, %d throttled, %d errors, %d shed; %.1f req/s, p50=%.2fms p99=%.2fms → %s\n",
		res.Totals.Sent, res.Totals.OK, res.Totals.Throttled, res.Totals.Errors, res.Totals.Shed,
		res.ThroughputRPS, res.Latency.P50MS, res.Latency.P99MS, *out)
	if res.Totals.Errors > 0 {
		fmt.Fprintf(os.Stderr, "asaload: %d requests errored\n", res.Totals.Errors)
		os.Exit(1)
	}
}

// profile is the -out document.
type profile struct {
	GeneratedAt   string            `json:"generated_at"`
	Config        map[string]any    `json:"config"`
	Graphs        []string          `json:"graphs"`
	Totals        totals            `json:"totals"`
	ThroughputRPS float64           `json:"throughput_rps"`
	Latency       latencySummary    `json:"latency"`
	LatencyOK     latencySummary    `json:"latency_ok"`
	Cache         map[string]uint64 `json:"cache"`
	ClusterPaths  map[string]uint64 `json:"cluster_paths,omitempty"`
	StatusCounts  map[string]uint64 `json:"status_counts"`
}

type totals struct {
	Sent      uint64 `json:"sent"`
	Completed uint64 `json:"completed"`
	OK        uint64 `json:"ok"`
	Throttled uint64 `json:"throttled_429"`
	Errors    uint64 `json:"errors"`
	Shed      uint64 `json:"shed"`
}

type latencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// summarize reports exact statistics of the raw latency samples, in
// milliseconds.
func summarize(samples []time.Duration) latencySummary {
	ms := make([]float64, len(samples))
	var sum float64
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
		sum += ms[i]
	}
	sort.Float64s(ms)
	out := latencySummary{Count: len(ms)}
	if len(ms) > 0 {
		out.MeanMS = sum / float64(len(ms))
	}
	out.P50MS, out.P90MS, out.P99MS = quantile(ms, 0.5), quantile(ms, 0.9), quantile(ms, 0.99)
	return out
}

// quantile is the linearly interpolated q-quantile of sorted samples (the
// "type 7" estimator), 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// startCPUProfile kicks off a concurrent CPU-profile capture covering (most
// of) the load window and returns a channel closed when the artifact is
// written; nil when no prefix was given.
func startCPUProfile(base, prefix string, duration time.Duration) chan struct{} {
	if prefix == "" {
		return nil
	}
	seconds := int(duration.Seconds())
	if seconds < 1 {
		seconds = 1
	}
	if seconds > 10 {
		seconds = 10
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		url := fmt.Sprintf("%s/debug/profile?kind=cpu&seconds=%d", base, seconds)
		if err := fetchToFile(url, prefix+".cpu.pprof"); err != nil {
			fmt.Fprintf(os.Stderr, "asaload: cpu profile: %v\n", err)
		}
	}()
	return done
}

// fetchToFile GETs url and writes the body to path.
func fetchToFile(url, path string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return os.WriteFile(path, raw, 0o644)
}

// drive runs the open loop and aggregates the outcome counters. It also
// returns the trace ID of one driven request (preferring one the cluster
// forwarded — the interesting multi-node shape) for -trace-out.
func drive(base string, hashes []string, seeds int, rate float64, duration time.Duration, inflight int) (*profile, string) {
	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var (
		sent, completed, ok2xx, throttled, errs, shed atomic.Uint64
		mu                                            sync.Mutex
		latAll, latOK                                 []time.Duration
		cache                                         = map[string]uint64{}
		paths                                         = map[string]uint64{}
		statuses                                      = map[string]uint64{}
		traceID                                       string
		traceForwarded                                bool
	)
	sem := make(chan struct{}, inflight)
	hc := &http.Client{Timeout: 2 * time.Minute}
	var wg sync.WaitGroup

	start := time.Now()
	deadline := start.Add(duration)
	for i := 0; time.Now().Before(deadline); i++ {
		select {
		case sem <- struct{}{}:
		default:
			shed.Add(1) // open loop: a saturated client sheds, it does not slow down
			time.Sleep(interval)
			continue
		}
		hash := hashes[i%len(hashes)]
		seed := uint64(i%seeds) + 1
		sent.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			body, _ := json.Marshal(serve.DetectRequest{Graph: hash, Options: serve.DetectOptions{Seed: seed}})
			t0 := time.Now()
			resp, err := hc.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
			elapsed := time.Since(t0)
			if err != nil {
				errs.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			completed.Add(1)
			switch {
			case resp.StatusCode == http.StatusOK:
				ok2xx.Add(1)
			case resp.StatusCode == http.StatusTooManyRequests:
				throttled.Add(1)
			default:
				errs.Add(1)
			}
			mu.Lock()
			latAll = append(latAll, elapsed)
			if resp.StatusCode == http.StatusOK {
				latOK = append(latOK, elapsed)
			}
			statuses[fmt.Sprintf("%d", resp.StatusCode)]++
			if v := resp.Header.Get("X-Asamap-Cache"); v != "" {
				cache[v]++
			}
			path := resp.Header.Get(cluster.HeaderCluster)
			if path != "" {
				paths[path]++
			}
			if tid := resp.Header.Get("X-Asamap-Trace-Id"); tid != "" && resp.StatusCode == http.StatusOK {
				forwarded := path == "forwarded"
				if traceID == "" || (forwarded && !traceForwarded) {
					traceID, traceForwarded = tid, forwarded
				}
			}
			mu.Unlock()
		}()
		time.Sleep(interval)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &profile{
		Totals: totals{
			Sent:      sent.Load(),
			Completed: completed.Load(),
			OK:        ok2xx.Load(),
			Throttled: throttled.Load(),
			Errors:    errs.Load(),
			Shed:      shed.Load(),
		},
		Latency:      summarize(latAll),
		LatencyOK:    summarize(latOK),
		Cache:        cache,
		StatusCounts: statuses,
	}
	if len(paths) > 0 {
		res.ClusterPaths = paths
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(completed.Load()) / elapsed
	}
	return res, traceID
}

// uploadGraphs generates nGraphs LFR graphs and registers them at base.
func uploadGraphs(base string, nGraphs, nVerts int, mu float64, seed uint64) ([]string, error) {
	hashes := make([]string, 0, nGraphs)
	for i := 0; i < nGraphs; i++ {
		g, _, err := gen.LFR(gen.DefaultLFR(nVerts, mu), rng.New(seed+uint64(i)))
		if err != nil {
			return nil, fmt.Errorf("generate graph %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			return nil, err
		}
		resp, err := http.Post(base+"/v1/graphs", "text/plain", &buf)
		if err != nil {
			return nil, fmt.Errorf("upload graph %d: %w", i, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("upload graph %d: status %d: %s", i, resp.StatusCode, strings.TrimSpace(string(raw)))
		}
		var info serve.GraphInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			return nil, err
		}
		hashes = append(hashes, info.Hash)
	}
	sort.Strings(hashes)
	return hashes, nil
}

// handlerSwap lets loopback listeners exist before the nodes they serve.
type handlerSwap struct{ h atomic.Value }

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// startSelfServe hosts the service in-process: a single server when replicas
// is 0, otherwise `replicas` nodes behind a router, with the fault injector
// on every inter-replica path. Returns a stop function and the base URL to
// load (the router's, in cluster mode).
func startSelfServe(replicas, queueCap, jobs int, fc fault.Config) (func(), string, error) {
	mkServe := func() *serve.Server {
		cfg := serve.DefaultConfig()
		cfg.QueueCapacity = queueCap
		cfg.Workers = jobs
		cfg.Logger = obs.NewLogger(io.Discard, slog.LevelError)
		return serve.New(cfg)
	}
	serveOn := func(h http.Handler) (*http.Server, net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		hs := &http.Server{Handler: h}
		go hs.Serve(ln)
		return hs, ln, nil
	}

	if replicas <= 0 {
		s := mkServe()
		hs, ln, err := serveOn(s.Handler())
		if err != nil {
			s.Close()
			return nil, "", err
		}
		stop := func() { hs.Close(); s.Close() }
		return stop, "http://" + ln.Addr().String(), nil
	}

	inj, err := fault.New(fc)
	if err != nil {
		return nil, "", err
	}
	var (
		stops []func()
		urls  []string
		swaps []*handlerSwap
	)
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	for i := 0; i < replicas; i++ {
		sw := &handlerSwap{}
		hs, ln, err := serveOn(sw)
		if err != nil {
			stopAll()
			return nil, "", err
		}
		stops = append(stops, func() { hs.Close() })
		swaps = append(swaps, sw)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	mkNode := func(self int) *cluster.Node {
		from := self
		if from < 0 {
			from = replicas
		}
		cfg := cluster.Config{
			Self:        self,
			Peers:       urls,
			Replication: 2,
			Seed:        42,
			PeerTimeout: 30 * time.Second,
			Transport: func(peer int) http.RoundTripper {
				return &fault.Transport{Inj: inj, From: from, To: peer, DelayFor: time.Millisecond}
			},
		}
		return cluster.NewNode(mkServe(), cfg)
	}
	for i := 0; i < replicas; i++ {
		n := mkNode(i)
		swaps[i].h.Store(n.Handler())
		stops = append(stops, n.Close)
	}
	router := mkNode(-1)
	hs, ln, err := serveOn(router.Handler())
	if err != nil {
		stopAll()
		return nil, "", err
	}
	stops = append(stops, func() { hs.Close(); router.Close() })
	return stopAll, "http://" + ln.Addr().String(), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "asaload: %v\n", err)
	os.Exit(1)
}
