package serve

import (
	"bytes"
	"context"
	"errors"
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs, NewClient(hs.URL, hs.Client())
}

func TestUploadAndDetectRoundTrip(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()

	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	if info.Vertices != 6 || info.Edges != 7 || info.Directed || info.Reused {
		t.Fatalf("upload info: %+v", info)
	}
	if len(info.Hash) != 64 {
		t.Fatalf("hash %q not a sha256 hex digest", info.Hash)
	}

	res, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	ctx := context.Background()

	up1, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	up2, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	if up2.Hash != up1.Hash || !up2.Reused {
		t.Fatalf("re-upload not deduplicated: %+v vs %+v", up1, up2)
	}

	opts := DetectOptions{Seed: 7, Workers: 2}
	r1, err := c.Detect(ctx, up1.Hash, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Detect(ctx, up1.Hash, opts)
	if err != nil {
		t.Fatal(err)
	}
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
	ctx := context.Background()
	a, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.UploadGraph(ctx, strings.NewReader(shuffledTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
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
	ctx := context.Background()
	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed, different worker count: the fingerprint excludes Workers
	// because results are bit-identical across it, so this must be a cache
	// hit with the same bytes.
	r2, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != CacheHit || !bytes.Equal(r1.Raw, r2.Raw) {
		t.Fatalf("worker-count variant missed the cache (outcome %q)", r2.Cache)
	}
	if s.Runs() != 1 {
		t.Fatalf("%d runs, want 1", s.Runs())
	}
}

func TestDifferentSeedsAreDifferentCacheEntries(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detect(ctx, info.Hash, DetectOptions{Seed: 2}); err != nil {
		t.Fatal(err)
	}
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
	ctx := context.Background()
	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := c.Detect(ctx, info.Hash, DetectOptions{Accum: "hashgraph", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Detect(ctx, info.Hash, DetectOptions{Accum: "baseline", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
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

func TestDetectErrors(t *testing.T) {
	_, hs, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()

	// Unknown graph hash -> 404.
	_, err := c.Detect(ctx, strings.Repeat("ab", 32), DetectOptions{})
	var apiErr *APIError
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown hash: got %v, want 404", err)
	}

	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	// Bad option value -> 400.
	_, err = c.Detect(ctx, info.Hash, DetectOptions{Accum: "quantum"})
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad accum: got %v, want 400", err)
	}
	// Unknown JSON field -> 400.
	resp, err := hs.Client().Post(hs.URL+"/v1/detect", "application/json",
		strings.NewReader(`{"graph":"`+info.Hash+`","optionz":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// Malformed edge list -> 400.
	_, err = c.UploadGraph(ctx, strings.NewReader("0 1\nnot an edge\n"), false)
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("malformed upload: got %v, want 400", err)
	}
	// Non-finite weight -> 400.
	_, err = c.UploadGraph(ctx, strings.NewReader("0 1 +Inf\n"), false)
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("inf weight: got %v, want 400", err)
	}
}

func TestUploadSizeLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxUploadBytes = 64
	_, _, c := newTestServer(t, cfg)
	big := strings.Repeat("0 1\n", 100)
	_, err := c.UploadGraph(context.Background(), strings.NewReader(big), false)
	var apiErr *APIError
	if err == nil || !asAPIError(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: got %v, want 413", err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	info, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detect(ctx, info.Hash, DetectOptions{}); err != nil {
		t.Fatal(err)
	}

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("health status %v", health["status"])
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
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
	ctx := context.Background()
	up, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.GraphInfo(ctx, up.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash != up.Hash || info.Vertices != 6 {
		t.Fatalf("graph info mismatch: %+v vs %+v", info, up)
	}
	if _, err := c.GraphInfo(ctx, "deadbeef"); err == nil {
		t.Fatal("unknown hash did not error")
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

func asAPIError(err error, target **APIError) bool {
	return errors.As(err, target)
}
