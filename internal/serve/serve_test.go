package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/clock"
)

// twoTriangles is a tiny graph with two planted communities bridged by one
// edge — enough structure that detection finds exactly two modules.
const twoTriangles = "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n"

// shuffledTriangles is the same weighted graph with a comment, reversed
// undirected orientations, and reordered edges. Vertices appear in the same
// first-appearance order (labels remap to the same dense IDs), so it must
// canonicalize to the same content address.
const shuffledTriangles = "# same graph, edges reversed/reordered\n0 1\n2 1\n0 2\n3 4\n5 4\n3 5\n3 0\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, testClient) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs, testClient{t, hs}
}

// testClient speaks plain net/http to a test server, one exchange per call.
type testClient struct {
	tb testing.TB
	hs *httptest.Server
}

// reply is one exchange's status, headers and fully read body.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// call makes one exchange under ctx, sending a string body as is and any
// other non-nil body as JSON. Only a transport failure is an error.
func (c testClient) call(ctx context.Context, method, path string, body any) (reply, error) {
	var rd io.Reader
	if text, ok := body.(string); ok {
		rd = strings.NewReader(text)
	} else if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.hs.URL+path, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hs.Client().Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, resp.Header, raw}, err
}

// send is call without a deadline; a transport failure fails the test.
func (c testClient) send(method, path string, body any) reply {
	c.tb.Helper()
	r, err := c.call(context.Background(), method, path, body)
	if err != nil {
		c.tb.Fatalf("%s %s: %v", method, path, err)
	}
	return r
}

// must sends one exchange that has to answer 2xx and decodes its JSON body
// into out when out is non-nil.
func (c testClient) must(method, path string, body, out any) reply {
	c.tb.Helper()
	r := c.send(method, path, body)
	if r.status/100 != 2 {
		c.tb.Fatalf("%s %s: HTTP %d: %s", method, path, r.status, r.body)
	}
	if out != nil {
		if err := json.Unmarshal(r.body, out); err != nil {
			c.tb.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return r
}

// upload registers an edge list.
func (c testClient) upload(edges string) (info GraphInfo) {
	c.tb.Helper()
	c.must(http.MethodPost, "/v1/graphs", edges, &info)
	return info
}

// uploadDelta registers a delta on parent.
func (c testClient) uploadDelta(parent, delta string) (info VersionInfo) {
	c.tb.Helper()
	c.must(http.MethodPost, "/v1/graphs/"+parent+"/delta", delta, &info)
	return info
}

// detected is a 200 detect reply: the decoded body, the X-Asamap-Cache
// disposition and the exact response bytes.
type detected struct {
	DetectResponse
	Cache CacheOutcome
	Raw   []byte
}

// detect posts a detect request that has to answer 200.
func (c testClient) detect(graph string, opts DetectOptions) (d detected) {
	c.tb.Helper()
	r := c.must(http.MethodPost, "/v1/detect", DetectRequest{Graph: graph, Options: opts}, &d.DetectResponse)
	d.Cache, d.Raw = CacheOutcome(r.header.Get("X-Asamap-Cache")), r.body
	return d
}

func TestUploadAndDetectRoundTrip(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	if info.Vertices != 6 || info.Edges != 7 || info.Directed || info.Reused {
		t.Fatalf("upload info: %+v", info)
	}
	if len(info.Hash) != 64 {
		t.Fatalf("hash %q not a sha256 hex digest", info.Hash)
	}

	res := c.detect(info.Hash, DetectOptions{Seed: 1})
	if res.NumModules != 2 {
		t.Fatalf("detected %d modules on two triangles, want 2", res.NumModules)
	}
	if len(res.Membership) != 6 {
		t.Fatalf("membership covers %d vertices, want 6", len(res.Membership))
	}
	if res.Cache != CacheMiss {
		t.Fatalf("first request cache outcome %q, want miss", res.Cache)
	}
	if res.Membership[0] != res.Membership[1] || res.Membership[3] != res.Membership[4] ||
		res.Membership[0] == res.Membership[3] {
		t.Fatalf("membership does not separate the triangles: %v", res.Membership)
	}
	if s.Runs() != 1 {
		t.Fatalf("%d runs executed, want 1", s.Runs())
	}
}

// TestIdenticalRequestsAreByteIdenticalAndCached is the core acceptance
// criterion: same graph bytes + options + seed in, byte-identical result
// out, with the second request served from cache after exactly one parse
// and one run.
func TestIdenticalRequestsAreByteIdenticalAndCached(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	up1, up2 := c.upload(twoTriangles), c.upload(twoTriangles)
	if up2.Hash != up1.Hash || !up2.Reused {
		t.Fatalf("re-upload not deduplicated: %+v vs %+v", up1, up2)
	}

	opts := DetectOptions{Seed: 7, Workers: 2}
	r1, r2 := c.detect(up1.Hash, opts), c.detect(up1.Hash, opts)
	if !bytes.Equal(r1.Raw, r2.Raw) {
		t.Fatalf("identical requests returned different bytes:\n%s\n%s", r1.Raw, r2.Raw)
	}
	if r2.Cache != CacheHit {
		t.Fatalf("second request outcome %q, want hit", r2.Cache)
	}
	if got := s.registry.Stats().Parses; got != 1 {
		t.Fatalf("%d parses for two identical uploads, want 1", got)
	}
	if got := s.Runs(); got != 1 {
		t.Fatalf("%d runs for two identical requests, want 1", got)
	}
}

func TestCanonicalDedupAcrossTextualVariants(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	a, b := c.upload(twoTriangles), c.upload(shuffledTriangles)
	if a.Hash != b.Hash {
		t.Fatalf("textual variants got different content addresses: %s vs %s", a.Hash, b.Hash)
	}
	if !b.Reused {
		t.Fatal("canonical duplicate not marked reused")
	}
	// Both uploads parse (different raw bytes) but only one graph is stored.
	st := s.registry.Stats()
	if st.Graphs != 1 || st.Parses != 2 || st.CanonicalHits != 1 {
		t.Fatalf("registry stats after canonical dedup: %+v", st)
	}
}

func TestWorkerCountDoesNotFragmentCache(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	r1 := c.detect(info.Hash, DetectOptions{Seed: 3, Workers: 1})
	// Same seed, different worker count: the fingerprint excludes Workers
	// because results are bit-identical across it, so this must be a cache
	// hit with the same bytes.
	r2 := c.detect(info.Hash, DetectOptions{Seed: 3, Workers: 4})
	if r2.Cache != CacheHit || !bytes.Equal(r1.Raw, r2.Raw) {
		t.Fatalf("worker-count variant missed the cache (outcome %q)", r2.Cache)
	}
	if s.Runs() != 1 {
		t.Fatalf("%d runs, want 1", s.Runs())
	}
}

func TestDifferentSeedsAreDifferentCacheEntries(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	c.detect(info.Hash, DetectOptions{Seed: 1})
	c.detect(info.Hash, DetectOptions{Seed: 2})
	if s.Runs() != 2 {
		t.Fatalf("%d runs for two seeds, want 2", s.Runs())
	}
}

// TestDetectHashGraphBackend: the probe-free backend is selectable over the
// API, partitions identically to baseline (backend choice is a pure
// performance decision), and fingerprints distinctly (so cached results
// never alias across backends).
func TestDetectHashGraphBackend(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	hg := c.detect(info.Hash, DetectOptions{Accum: "hashgraph", Seed: 2})
	base := c.detect(info.Hash, DetectOptions{Accum: "baseline", Seed: 2})
	if hg.Codelength != base.Codelength {
		t.Errorf("hashgraph codelength %v != baseline %v", hg.Codelength, base.Codelength)
	}
	for i := range hg.Membership {
		if hg.Membership[i] != base.Membership[i] {
			t.Fatalf("membership diverges at %d", i)
		}
	}
	if hg.Fingerprint == base.Fingerprint {
		t.Error("hashgraph and baseline share a fingerprint — cache would alias backends")
	}
}

// TestDetectErrors: bad requests answer their status, and an error reply
// echoes the client's X-Request-Id so it correlates with the server's log.
func TestDetectErrors(t *testing.T) {
	_, hs, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	for _, tc := range []struct {
		name, path string
		body       any
		want       int
	}{
		{"unknown hash", "/v1/detect", DetectRequest{Graph: strings.Repeat("ab", 32)}, http.StatusNotFound},
		{"bad accum", "/v1/detect", DetectRequest{Graph: info.Hash, Options: DetectOptions{Accum: "quantum"}}, http.StatusBadRequest},
		{"unknown field", "/v1/detect", `{"graph":"` + info.Hash + `","optionz":{}}`, http.StatusBadRequest},
		{"malformed upload", "/v1/graphs", "0 1\nnot an edge\n", http.StatusBadRequest},
		{"inf weight", "/v1/graphs", "0 1 +Inf\n", http.StatusBadRequest},
	} {
		if r := c.send(http.MethodPost, tc.path, tc.body); r.status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, r.status, r.body, tc.want)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/graphs/deadbeef", nil)
	req.Header.Set("X-Request-Id", "corr-42")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Request-Id") != "corr-42" {
		t.Fatalf("unknown graph: status %d, X-Request-Id %q; want 404 echoing corr-42",
			resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}
}

func TestUploadSizeLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxUploadBytes = 64
	_, _, c := newTestServer(t, cfg)
	if r := c.send(http.MethodPost, "/v1/graphs", strings.Repeat("0 1\n", 100)); r.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", r.status)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	c.detect(info.Hash, DetectOptions{})

	var health map[string]any
	c.must(http.MethodGet, "/healthz", nil, &health)
	if health["status"] != "ok" {
		t.Fatalf("health status %v", health["status"])
	}

	body := string(c.must(http.MethodGet, "/metrics", nil, nil).body)
	for _, want := range []string{
		"asamap_queue_capacity 16",
		"asamap_registry_graphs 1",
		"asamap_runs_total 1",
		"asamap_cache_misses_total 1",
		`asamap_kernel_seconds_total{kernel="FindBestCommunity"}`,
		`asamap_gauge_sum{gauge="SweepImbalance"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestPprofExposed(t *testing.T) {
	_, hs, _ := newTestServer(t, DefaultConfig())
	resp, err := hs.Client().Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}

func TestGraphInfoEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	up := c.upload(twoTriangles)
	var info GraphInfo
	c.must(http.MethodGet, "/v1/graphs/"+up.Hash, nil, &info)
	if info.Hash != up.Hash || info.Vertices != 6 {
		t.Fatalf("graph info mismatch: %+v vs %+v", info, up)
	}
	if r := c.send(http.MethodGet, "/v1/graphs/deadbeef", nil); r.status != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d, want 404", r.status)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	cache := NewResultCache(2)
	mk := func(v string) func() (cacheEntry, error) {
		return func() (cacheEntry, error) { return cacheEntry{body: []byte(v)}, nil }
	}
	cache.GetOrCompute("a", mk("A"))
	cache.GetOrCompute("b", mk("B"))
	cache.GetOrCompute("a", mk("A2")) // refresh a's recency; still "A"
	cache.GetOrCompute("c", mk("C"))  // evicts b (the LRU entry)
	val, out, _ := cache.GetOrCompute("a", mk("A3"))
	if out != CacheHit || string(val.body) != "A" {
		t.Fatalf("key a: outcome %q val %q", out, val.body)
	}
	if _, out, _ := cache.GetOrCompute("b", mk("B2")); out != CacheMiss {
		t.Fatalf("evicted key outcome %q, want miss", out)
	}
	st := cache.Stats()
	if st.Evictions != 2 || st.Entries != 2 {
		t.Fatalf("cache stats: %+v", st)
	}
}

func TestQueueRetryAfterUsesInjectedClock(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	q := NewQueue(2, 1, fake, 0)
	defer q.Close()
	// No history: floor of one second.
	if got := q.RetryAfter(); got != time.Second {
		t.Fatalf("cold RetryAfter %v, want 1s", got)
	}
	// One 8s job (measured by the fake clock) seeds the EWMA.
	done := make(chan struct{})
	h, err := q.Submit(context.Background(), func(ctx context.Context) error {
		fake.Advance(8 * time.Second)
		close(done)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := q.RetryAfter(); got != 8*time.Second {
		t.Fatalf("RetryAfter %v after one 8s job, want 8s", got)
	}
}
