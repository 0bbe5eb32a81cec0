package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/clock"
)

// TestQueueColdStartRetryAfterPrior pins the cold-start Retry-After math:
// before any job has completed, the estimate is prior × ceil(outstanding /
// workers), not the degenerate one-second floor regardless of depth.
func TestQueueColdStartRetryAfterPrior(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	q := NewQueue(8, 2, fake, 0) // default prior: 1s
	defer q.Close()
	release := make(chan struct{})
	q.setTestGate(func(*queueJob) { <-release })
	defer close(release)

	// Empty queue: one round of the prior, exactly the floor.
	if got := q.RetryAfter(); got != time.Second {
		t.Fatalf("cold empty RetryAfter %v, want 1s", got)
	}
	for i := 0; i < 8; i++ {
		if _, err := q.Submit(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// 8 outstanding / 2 workers = 4 rounds × 1s prior.
	_, err := q.Submit(context.Background(), func(context.Context) error { return nil })
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("saturated submit returned %v, want ErrQueueFull", err)
	}
	if full.RetryAfter != 4*time.Second {
		t.Fatalf("cold saturated RetryAfter %v, want 4s (prior × 4 rounds)", full.RetryAfter)
	}
}

// TestQueueColdStartRetryAfterConfigurablePrior covers a non-default prior
// and the hand-off to EWMA control once the first job completes.
func TestQueueColdStartRetryAfterConfigurablePrior(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	q := NewQueue(4, 1, fake, 500*time.Millisecond)
	defer q.Close()
	release := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	q.setTestGate(func(*queueJob) {
		if gated.Load() {
			<-release
		}
	})

	for i := 0; i < 4; i++ {
		if _, err := q.Submit(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// 4 outstanding / 1 worker = 4 rounds × 500ms prior = 2s.
	_, err := q.Submit(context.Background(), func(context.Context) error { return nil })
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("saturated submit returned %v, want ErrQueueFull", err)
	}
	if full.RetryAfter != 2*time.Second {
		t.Fatalf("cold saturated RetryAfter %v, want 2s (500ms prior × 4 rounds)", full.RetryAfter)
	}
	gated.Store(false)
	close(release)
	for q.Stats().Outstanding > 0 {
		time.Sleep(time.Millisecond)
	}
	// The first completed sample replaces the prior outright.
	done := make(chan struct{})
	h, err := q.Submit(context.Background(), func(context.Context) error {
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
		t.Fatalf("RetryAfter %v after first 8s sample, want 8s (EWMA took over)", got)
	}
}

// TestColdStart429HeaderPinned pins the HTTP-level cold-start header: a
// saturated fresh server answers 429 with Retry-After scaled by the prior,
// before any job has ever completed.
func TestColdStart429HeaderPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCapacity = 6
	cfg.Workers = 2
	cfg.RetryAfterPrior = time.Second
	s, hs, _ := newTestServer(t, cfg)

	release := make(chan struct{})
	defer close(release)
	s.queue.setTestGate(func(*queueJob) { <-release })
	for i := 0; i < 6; i++ {
		if _, err := s.queue.Submit(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	info, err := s.registry.Add([]byte(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(DetectRequest{Graph: info.Hash})
	resp, err := http.Post(hs.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// 6 outstanding / 2 workers = 3 rounds × 1s prior.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("cold-start Retry-After header %q, want \"3\"", got)
	}
}

// TestClientRetryTransient5xx: a retrying client absorbs transient 503s and
// succeeds; the single-shot client surfaces them.
func TestClientRetryTransient5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			httpError(w, http.StatusServiceUnavailable, "warming up")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}))
	defer srv.Close()

	single := NewClient(srv.URL, srv.Client())
	if _, err := single.Health(context.Background()); err == nil {
		t.Fatal("single-shot client absorbed a 503")
	}
	calls.Store(0)
	c := NewClient(srv.URL, srv.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
	})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s + success)", calls.Load())
	}
}

// TestClientRetryHonorsRetryAfterOn429: the wait before retrying a 429 is
// the server's Retry-After estimate, observed on the injected clock.
func TestClientRetryHonorsRetryAfterOn429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			httpError(w, http.StatusTooManyRequests, "busy")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}))
	defer srv.Close()

	fake := clock.NewFake(time.Unix(0, 0))
	c := NewClient(srv.URL, srv.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, Clock: fake,
	})
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Health(context.Background())
		done <- err
	}()
	for fake.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	// One second in: still parked — the 2s server estimate governs, not the
	// millisecond backoff schedule.
	fake.Advance(time.Second)
	select {
	case err := <-done:
		t.Fatalf("retry fired before Retry-After elapsed: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	fake.Advance(time.Second + 2*time.Millisecond) // past 2s plus jitter margin
	if err := <-done; err != nil {
		t.Fatalf("retry after 429 failed: %v", err)
	}
	wg.Wait()
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

// TestClientRetryExhaustsAttempts: a persistent failure surfaces after
// exactly MaxAttempts tries.
func TestClientRetryExhaustsAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		httpError(w, http.StatusServiceUnavailable, "down")
	}))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
	})
	var apiErr *APIError
	if _, err := c.Health(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("want APIError 503 after exhaustion, got %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want exactly MaxAttempts=2", calls.Load())
	}
}

// TestClientRetryTransportError: connection-level failures are retried too.
func TestClientRetryTransportError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	}))
	defer srv.Close()

	hc := &http.Client{Transport: &failFirstTransport{inner: http.DefaultTransport, failures: 2, calls: &calls}}
	c := NewClient(srv.URL, hc).WithRetry(RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
	})
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("transport saw %d calls, want 3", calls.Load())
	}
}

// failFirstTransport fails the first N round trips at the connection level.
type failFirstTransport struct {
	inner    http.RoundTripper
	failures int64
	calls    *atomic.Int64
}

func (t *failFirstTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.calls.Add(1) <= t.failures {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("synthetic connection reset")
	}
	return t.inner.RoundTrip(req)
}

// TestCacheEvictionRaceSingleflight is the satellite acceptance test: a
// concurrent miss storm against an at-capacity LRU must run exactly one
// compute per key, and an entry evicted while another key's flight is still
// in progress must not resurrect.
func TestCacheEvictionRaceSingleflight(t *testing.T) {
	cache := NewResultCache(1)
	var aComputes atomic.Int64

	// Phase 1: 8 concurrent misses on "a" against the cold cache. The
	// leader's compute spins until every storm goroutine has entered
	// GetOrCompute, so the storm genuinely overlaps the flight; coalescing
	// plus the cache must still bound the computes to exactly one.
	const stormers = 8
	var entered atomic.Int64
	var finished sync.WaitGroup
	finished.Add(stormers)
	for i := 0; i < stormers; i++ {
		go func() {
			defer finished.Done()
			entered.Add(1)
			val, _, err := cache.GetOrCompute("a", func() (cacheEntry, error) {
				for entered.Load() < stormers {
					time.Sleep(time.Microsecond)
				}
				aComputes.Add(1)
				return cacheEntry{body: []byte("A1")}, nil
			})
			if err != nil || string(val.body) != "A1" {
				t.Errorf("storm got %q, %v", val.body, err)
			}
		}()
	}
	finished.Wait()
	if got := aComputes.Load(); got != 1 {
		t.Fatalf("miss storm ran %d computes for one key, want 1", got)
	}

	// Phase 2: evict "a" by filling the capacity-1 cache with "b"; then,
	// while the recompute flight for "a" is in progress, "c" evicts "b".
	// The flight's late put must land its own fresh value and neither
	// generation of evicted entries may resurrect.
	st0 := cache.Stats()
	cache.put("b", []byte("B1"))
	if _, ok := cache.get("a"); ok {
		t.Fatal("evicted key still readable")
	}
	val, outcome, err := cache.GetOrCompute("a", func() (cacheEntry, error) {
		aComputes.Add(1)
		cache.put("c", []byte("C1")) // concurrent insert mid-flight: evicts "b"
		return cacheEntry{body: []byte("A2")}, nil
	})
	if err != nil || outcome != CacheMiss || string(val.body) != "A2" {
		t.Fatalf("recompute after eviction: %q %s %v", val.body, outcome, err)
	}
	if got := aComputes.Load(); got != 2 {
		t.Fatalf("evicted key recomputed %d times total, want 2", got)
	}
	if _, ok := cache.get("b"); ok {
		t.Fatal("entry evicted mid-flight resurrected")
	}
	if v, ok := cache.get("a"); !ok || string(v.body) != "A2" {
		t.Fatalf("cache serves %q for a, want the post-eviction generation A2", v.body)
	}
	if cache.Stats().Entries > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", cache.Stats().Entries)
	}
	if cache.Stats().Evictions <= st0.Evictions {
		t.Fatal("no eviction recorded across the race")
	}
}

// TestCacheEvictionStormManyKeys drives an at-capacity cache with a
// concurrent storm across more keys than fit, repeatedly: every key
// computes at most once per miss generation (never twice concurrently) and
// the entry count never exceeds capacity.
func TestCacheEvictionStormManyKeys(t *testing.T) {
	const capEntries = 2
	cache := NewResultCache(capEntries)
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	inFlight := make([]atomic.Int64, len(keys))
	var wg sync.WaitGroup
	for round := 0; round < 20; round++ {
		for ki := range keys {
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(ki int) {
					defer wg.Done()
					val, _, err := cache.GetOrCompute(keys[ki], func() (cacheEntry, error) {
						if n := inFlight[ki].Add(1); n != 1 {
							t.Errorf("key %s: %d concurrent computes", keys[ki], n)
						}
						defer inFlight[ki].Add(-1)
						return cacheEntry{body: []byte(keys[ki])}, nil
					})
					if err != nil || string(val.body) != keys[ki] {
						t.Errorf("key %s: got %q, %v", keys[ki], val.body, err)
					}
				}(ki)
			}
		}
	}
	wg.Wait()
	if got := cache.Stats().Entries; got > capEntries {
		t.Fatalf("cache holds %d entries, capacity %d", got, capEntries)
	}
}
