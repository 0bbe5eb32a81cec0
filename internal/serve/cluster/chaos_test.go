package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/serve"
)

// Two small graphs with planted structure; different canonical hashes.
const (
	graphA = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n"
	graphB = "0 1\n1 2\n2 3\n3 0\n4 5\n5 6\n6 7\n7 4\n0 4\n"
)

// handlerSwap lets the httptest servers exist (so their URLs are known)
// before the nodes that will serve them are constructed.
type handlerSwap struct{ h atomic.Value }

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
}

// downGate simulates a crashed replica: while down, every connection to it
// dies at the transport layer before any bytes move.
type downGate struct {
	down  *atomic.Bool
	peer  int
	inner http.RoundTripper
}

func (g *downGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.down.Load() {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("cluster test: replica %d is down", g.peer)
	}
	return g.inner.RoundTrip(req)
}

// testCluster is an in-process deployment: N replica nodes plus one pure
// router, every inter-replica path wired through a shared seeded fault
// injector and a per-replica crash gate.
type testCluster struct {
	t       testing.TB
	router  *Node
	nodes   []*Node
	srvs    []*httptest.Server
	rsrv    *httptest.Server
	down    []*atomic.Bool
	inj     *fault.Injector
	baseURL string
}

func newTestCluster(t testing.TB, replicas int, faultCfg fault.Config) *testCluster {
	t.Helper()
	inj, err := fault.New(faultCfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{t: t, inj: inj}
	urls := make([]string, replicas)
	swaps := make([]*handlerSwap, replicas)
	tc.down = make([]*atomic.Bool, replicas)
	for i := 0; i < replicas; i++ {
		swaps[i] = &handlerSwap{}
		srv := httptest.NewServer(swaps[i])
		tc.srvs = append(tc.srvs, srv)
		urls[i] = srv.URL
		tc.down[i] = &atomic.Bool{}
	}
	cfg := func(self int) Config {
		from := self
		if from < 0 {
			from = replicas // the router's injector coordinate
		}
		return Config{
			Self:             self,
			Peers:            urls,
			Replication:      2,
			Seed:             42,
			PeerTimeout:      10 * time.Second,
			PeerRetries:      2,
			PeerBackoff:      Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			BreakerThreshold: 1,
			BreakerCooldown:  -1, // zero: every post-trip call probes — deterministic
			Transport: func(peer int) http.RoundTripper {
				return &fault.Transport{
					Inj:      inj,
					From:     from,
					To:       peer,
					DelayFor: time.Millisecond,
					Inner:    &downGate{down: tc.down[peer], peer: peer, inner: http.DefaultTransport},
				}
			},
		}
	}
	serveCfg := serve.DefaultConfig()
	serveCfg.QueueCapacity = 8
	serveCfg.Workers = 2
	for i := 0; i < replicas; i++ {
		n := NewNode(serve.New(serveCfg), cfg(i))
		tc.nodes = append(tc.nodes, n)
		swaps[i].h.Store(n.Handler())
	}
	tc.router = NewNode(serve.New(serveCfg), cfg(-1))
	tc.rsrv = httptest.NewServer(tc.router.Handler())
	tc.baseURL = tc.rsrv.URL
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	tc.rsrv.Close()
	tc.router.Close()
	for i, srv := range tc.srvs {
		srv.Close()
		tc.nodes[i].Close()
	}
}

// upload pushes an edge list through base and returns the canonical hash.
func upload(t testing.TB, base, edges string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs", "text/plain", strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	var info serve.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.Hash
}

// detect posts one detection request and returns (status, cluster routing
// path, body).
func detect(t *testing.T, base, graphHash string, seed uint64) (int, string, []byte) {
	t.Helper()
	body, _ := json.Marshal(serve.DetectRequest{Graph: graphHash, Options: serve.DetectOptions{Seed: seed}})
	resp, err := http.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(HeaderCluster), raw
}

// reference computes the ground-truth bytes on a standalone single-node
// server: the cluster must reproduce these exactly, whatever the faults.
func reference(t *testing.T, graphs map[string]string, seeds []uint64) map[string][]byte {
	t.Helper()
	s := serve.New(serve.DefaultConfig())
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	out := make(map[string][]byte)
	for name, edges := range graphs {
		hash := upload(t, srv.URL, edges)
		if hash != name {
			t.Fatalf("reference hash %s != %s", hash, name)
		}
		for _, seed := range seeds {
			status, _, body := detect(t, srv.URL, hash, seed)
			if status != http.StatusOK {
				t.Fatalf("reference detect status %d", status)
			}
			out[refKey(hash, seed)] = body
		}
	}
	return out
}

func refKey(hash string, seed uint64) string { return fmt.Sprintf("%s|%d", hash, seed) }

// metricsText scrapes base's /metrics.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestClusterForwardedByteIdentical: with no faults, the router proxies
// every detect to a ring owner and the bytes match a single-replica server
// exactly.
func TestClusterForwardedByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	ref := reference(t, map[string]string{hash: graphA}, []uint64{1, 2, 3})
	for _, seed := range []uint64{1, 2, 3} {
		status, path, body := detect(t, tc.baseURL, hash, seed)
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, status)
		}
		if path != "forwarded" {
			t.Fatalf("seed %d: routing path %q, want forwarded (router owns no shard)", seed, path)
		}
		if !bytes.Equal(body, ref[refKey(hash, seed)]) {
			t.Fatalf("seed %d: forwarded bytes differ from single-replica reference", seed)
		}
	}
	if st := tc.router.Stats(); st.Forwarded != 3 || st.Degraded != 0 {
		t.Fatalf("router stats %+v, want 3 forwarded / 0 degraded", st)
	}
	// The router computed nothing itself.
	if runs := tc.router.local.Runs(); runs != 0 {
		t.Fatalf("router ran %d local detections, want 0", runs)
	}
}

// TestClusterDegradedWhenOwnersDown is the graceful-degradation contract:
// with the entire owner set crashed, the router computes locally and answers
// 200 with byte-identical results instead of surfacing a 503.
func TestClusterDegradedWhenOwnersDown(t *testing.T) {
	tc := newTestCluster(t, 2, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	ref := reference(t, map[string]string{hash: graphA}, []uint64{7})

	tc.down[0].Store(true)
	tc.down[1].Store(true)
	status, path, body := detect(t, tc.baseURL, hash, 7)
	if status != http.StatusOK {
		t.Fatalf("status %d with all owners down, want 200", status)
	}
	if path != "degraded" {
		t.Fatalf("routing path %q, want degraded", path)
	}
	if !bytes.Equal(body, ref[refKey(hash, 7)]) {
		t.Fatal("degraded bytes differ from single-replica reference")
	}
	st := tc.router.Stats()
	if st.Degraded != 1 {
		t.Fatalf("router stats %+v, want 1 degraded", st)
	}
	if tc.router.peers[0].Stats().BreakerTrips == 0 {
		t.Fatal("no breaker trip recorded against the downed primary")
	}
	m := metricsText(t, tc.baseURL)
	for _, want := range []string{
		"asamap_cluster_degraded_total 1",
		"asamap_cluster_breaker_trips_total",
		"asamap_cluster_peer_retries_total",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Revive the owners: the same request now forwards again.
	tc.down[0].Store(false)
	tc.down[1].Store(false)
	status, path, body = detect(t, tc.baseURL, hash, 7)
	if status != http.StatusOK || path != "forwarded" {
		t.Fatalf("after revival: status %d path %q, want 200 forwarded", status, path)
	}
	if !bytes.Equal(body, ref[refKey(hash, 7)]) {
		t.Fatal("post-revival bytes differ from reference")
	}
}

// TestClusterPeerCacheAdoption: an owner that never computed a key serves it
// from its sibling's result cache — byte-identical, zero local runs.
func TestClusterPeerCacheAdoption(t *testing.T) {
	tc := newTestCluster(t, 2, fault.Disabled())
	// Talk to the replicas directly: both own every key at replication 2.
	hash := upload(t, tc.srvs[0].URL, graphA)
	status, path, first := detect(t, tc.srvs[0].URL, hash, 11)
	if status != http.StatusOK || path != "local" {
		t.Fatalf("replica 0: status %d path %q, want 200 local", status, path)
	}
	status, path, second := detect(t, tc.srvs[1].URL, hash, 11)
	if status != http.StatusOK {
		t.Fatalf("replica 1: status %d", status)
	}
	if path != "peer-cache" {
		t.Fatalf("replica 1 routing path %q, want peer-cache", path)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("peer-cache bytes differ from the sibling's compute")
	}
	if runs := tc.nodes[1].local.Runs(); runs != 0 {
		t.Fatalf("replica 1 ran %d detections for an adoptable key, want 0", runs)
	}
	if st := tc.nodes[1].Stats(); st.PeerCacheHits != 1 {
		t.Fatalf("replica 1 stats %+v, want 1 peer cache hit", st)
	}
}

// chaosOutcome is one request's observable routing result.
type chaosOutcome struct {
	Status int
	Path   string
}

// runChaosScenario drives the full fault schedule against a fresh cluster:
// two graphs, 18 serial detects, the primary owner of graph A crashing
// mid-run and reviving later. It asserts zero lost requests and byte-replay
// determinism of every response, and returns the outcome sequence.
func runChaosScenario(t *testing.T, ref map[string][]byte) []chaosOutcome {
	t.Helper()
	tc := newTestCluster(t, 3, fault.Config{
		Seed:      1234,
		DropProb:  0.12,
		DupProb:   0.08,
		DelayProb: 0.08,
		FailProb:  0.12,
	})
	hashA := upload(t, tc.baseURL, graphA)
	hashB := upload(t, tc.baseURL, graphB)
	// The ring is a pure function of (seed, replicas, vnodes), so the test
	// can locate graph A's primary owner without asking the router.
	victim := NewRing(3, 64, 42).Owners(hashA, 2)[0]

	seeds := []uint64{1, 2, 3, 4, 5}
	var outcomes []chaosOutcome
	for i := 0; i < 18; i++ {
		switch i {
		case 6:
			tc.down[victim].Store(true) // crash mid-run
		case 12:
			tc.down[victim].Store(false) // revive
		}
		hash := hashA
		if i%2 == 1 {
			hash = hashB
		}
		seed := seeds[i%len(seeds)]
		status, path, body := detect(t, tc.baseURL, hash, seed)
		if status != http.StatusOK {
			t.Fatalf("request %d (graph %s seed %d): status %d — a request was lost", i, hash[:8], seed, status)
		}
		if !bytes.Equal(body, ref[refKey(hash, seed)]) {
			t.Fatalf("request %d (graph %s seed %d): bytes differ from single-replica reference", i, hash[:8], seed)
		}
		outcomes = append(outcomes, chaosOutcome{Status: status, Path: path})
	}

	// The fault schedule and the crash must be visible in telemetry.
	st := tc.router.Stats()
	if st.Forwarded == 0 {
		t.Fatal("chaos run forwarded nothing")
	}
	if tc.router.peers[victim].Stats().BreakerTrips == 0 {
		t.Fatal("crashed owner never tripped its breaker")
	}
	var retries uint64
	for p := 0; p < 3; p++ {
		retries += tc.router.peers[p].Stats().Retries
	}
	if retries == 0 {
		t.Fatal("no retries under a 40% fault rate — the retry path is dead")
	}
	m := metricsText(t, tc.baseURL)
	for _, want := range []string{
		"asamap_cluster_forwarded_total",
		"asamap_cluster_breaker_trips_total",
		"asamap_cluster_peer_retries_total",
		"asamap_cluster_degraded_total",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	return outcomes
}

// TestClusterChaosByteReplayDeterminism is the chaos acceptance test: under
// a seeded schedule of drops, duplicates, delays, injected 5xx, and a
// crash/revive of graph A's primary owner, every request still answers 200
// with bytes identical to a single-replica server — and re-running the
// identical scenario reproduces the identical outcome sequence.
func TestClusterChaosByteReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short")
	}
	// Ground truth once: hashes are content addresses, so compute them via
	// a throwaway upload.
	s := serve.New(serve.DefaultConfig())
	srv := httptest.NewServer(s.Handler())
	hashA := upload(t, srv.URL, graphA)
	hashB := upload(t, srv.URL, graphB)
	srv.Close()
	s.Close()
	ref := reference(t, map[string]string{hashA: graphA, hashB: graphB}, []uint64{1, 2, 3, 4, 5})

	first := runChaosScenario(t, ref)
	second := runChaosScenario(t, ref)
	if len(first) != len(second) {
		t.Fatalf("outcome counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d: outcome diverged across identical runs: %+v vs %+v — "+
				"the fault schedule is not deterministic", i, first[i], second[i])
		}
	}
}
