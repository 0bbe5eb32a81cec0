package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
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

// setTestGate installs fn to run at the start of every job.
func (q *Queue) setTestGate(fn func(*queueJob)) {
	q.mu.Lock()
	q.testGate = fn
	q.mu.Unlock()
}
