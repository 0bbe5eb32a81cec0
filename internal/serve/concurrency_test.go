package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParallelIdenticalRequestsSingleflight: N parallel identical requests
// must execute exactly one parse and one detection run; every response is
// byte-identical.
func TestParallelIdenticalRequestsSingleflight(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	req := DetectRequest{Graph: c.upload(twoTriangles).Hash, Options: DetectOptions{Seed: 11}}

	const n = 16
	var wg sync.WaitGroup
	replies := make([]reply, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = c.call(context.Background(), http.MethodPost, "/v1/detect", req)
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		if errs[i] != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, r.status, errs[i])
		}
		if !bytes.Equal(replies[0].body, r.body) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if got := s.Runs(); got != 1 {
		t.Fatalf("%d detection runs for %d identical parallel requests, want 1", got, n)
	}
	if got := s.registry.Stats().Parses; got != 1 {
		t.Fatalf("%d parses, want 1", got)
	}
}

// TestParallelIdenticalUploadsSingleflight: concurrent identical uploads
// parse once and agree on the content address.
func TestParallelIdenticalUploadsSingleflight(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	const n = 12
	var wg sync.WaitGroup
	replies := make([]reply, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = c.call(context.Background(), http.MethodPost, "/v1/graphs", twoTriangles)
		}(i)
	}
	wg.Wait()
	infos := make([]GraphInfo, n)
	for i, r := range replies {
		if errs[i] != nil || r.status/100 != 2 || json.Unmarshal(r.body, &infos[i]) != nil {
			t.Fatalf("upload %d: status %d, %v", i, r.status, errs[i])
		}
		if infos[i].Hash != infos[0].Hash {
			t.Fatalf("upload %d hash %s != %s", i, infos[i].Hash, infos[0].Hash)
		}
	}
	if got := s.registry.Stats().Parses; got != 1 {
		t.Fatalf("%d parses for %d concurrent identical uploads, want 1", got, n)
	}
}

// TestQueueSaturationExactlyOne429 is the acceptance criterion: with queue
// capacity K, K+1 concurrent requests yield exactly one 429 and K
// successful deterministic results. The test gate holds every admitted job
// in flight until all submissions have resolved, so the count is exact by
// construction, not by timing.
func TestQueueSaturationExactlyOne429(t *testing.T) {
	const k = 3
	cfg := DefaultConfig()
	cfg.QueueCapacity = k
	cfg.Workers = 2
	s, _, c := newTestServer(t, cfg)
	info := c.upload(twoTriangles)

	// Gate: jobs block until released, so all K admission tokens stay held
	// while the K+1st request arrives — saturation is exact by construction.
	release := make(chan struct{})
	s.queue.setTestGate(func(*queueJob) { <-release })

	// K+1 requests with distinct seeds (identical seeds would coalesce in
	// the cache, never reaching the queue).
	replies := make([]reply, k+1)
	errs := make([]error, k+1)
	var wg sync.WaitGroup
	wg.Add(k + 1)
	for i := 0; i <= k; i++ {
		go func(i int) {
			defer wg.Done()
			req := DetectRequest{Graph: info.Hash, Options: DetectOptions{Seed: uint64(100 + i)}}
			replies[i], errs[i] = c.call(context.Background(), http.MethodPost, "/v1/detect", req)
		}(i)
	}

	// Spin until the queue reports K outstanding and exactly one rejection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.queue.Stats()
		if st.Rejected == 1 && st.Outstanding == k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never saturated: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	// The rejection names a whole number of seconds, at least one, and
	// carries its X-Request-Id like every reply.
	var busy, ok int
	for i, r := range replies {
		switch {
		case errs[i] != nil:
			t.Fatalf("request %d: %v", i, errs[i])
		case r.status == http.StatusOK:
			ok++
			if len(r.body) == 0 {
				t.Fatalf("request %d succeeded with empty body", i)
			}
		case r.status == http.StatusTooManyRequests:
			if secs, err := strconv.Atoi(r.header.Get("Retry-After")); err != nil || secs < 1 {
				t.Fatalf("Retry-After %q is not a whole number of seconds >= 1", r.header.Get("Retry-After"))
			}
			if r.header.Get("X-Request-Id") == "" {
				t.Fatal("429 reply carries no X-Request-Id")
			}
			busy++
		default:
			t.Fatalf("request %d: status %d, want 200 or 429", i, r.status)
		}
	}
	if busy != 1 || ok != k {
		t.Fatalf("%d rejected / %d succeeded, want 1 / %d", busy, ok, k)
	}

	// The K successes are deterministic: re-running each seed must
	// reproduce its bytes (now from cache).
	for i, r := range replies {
		if r.status != http.StatusOK {
			continue
		}
		if res := c.detect(info.Hash, DetectOptions{Seed: uint64(100 + i)}); !bytes.Equal(res.Raw, r.body) {
			t.Fatalf("seed %d replay differs from first run", 100+i)
		}
	}
}

// TestClientDisconnectCancelsInFlightJob: closing the request must cancel
// the detection run promptly through the context chain, and the queue must
// account it as canceled, not completed.
func TestClientDisconnectCancelsInFlightJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.QueueCapacity = 2
	s, _, c := newTestServer(t, cfg)

	// A graph big enough that a run takes long enough to straddle the
	// cancellation (hundreds of sweeps on ~2k vertices).
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%2000)
		fmt.Fprintf(&sb, "%d %d\n", i, (i+7)%2000)
	}
	info := c.upload(sb.String())

	var startedOnce sync.Once
	started := make(chan struct{})
	// The gate publishes that the job reached a worker, then holds it until
	// its context is actually canceled. Without the hold, a fast machine can
	// finish the whole run before the client's disconnect propagates to the
	// server, and the job counts as completed instead of canceled — the
	// cancellation must win by construction, not by racing the sweep loop.
	s.queue.setTestGate(func(j *queueJob) {
		startedOnce.Do(func() { close(started) })
		<-j.ctx.Done()
	})

	reqCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req := DetectRequest{Graph: info.Hash, Options: DetectOptions{Seed: 5, MaxSweeps: 1000, OuterIters: 100}}
		_, err := c.call(reqCtx, http.MethodPost, "/v1/detect", req)
		done <- err
	}()
	<-started
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled request returned a result")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled request did not return within 10s")
	}

	// The worker observes the cancellation and frees the slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.queue.Stats()
		if st.Canceled >= 1 && st.Outstanding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not accounted as canceled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if s.cache.Stats().Entries != 0 {
		t.Fatal("canceled run left a cache entry")
	}
}

// TestCancelWhileQueuedSkipsRun: a job whose client disconnects while still
// waiting in the queue must be skipped without executing.
func TestCancelWhileQueuedSkipsRun(t *testing.T) {
	q := NewQueue(4, 1, nil, 0)
	defer q.Close()

	block := make(chan struct{})
	h1, err := q.Submit(context.Background(), func(ctx context.Context) error {
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	ran := false
	h2, err := q.Submit(ctx2, func(ctx context.Context) error {
		ran = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel2() // dies while queued behind the blocked job
	close(block)

	if err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-canceled job returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("canceled job executed anyway")
	}
	st := q.Stats()
	if st.Canceled != 1 || st.Completed != 1 {
		t.Fatalf("queue accounting: %+v", st)
	}
}

// TestQueueCloseRejectsNewJobs: submissions after Close fail fast with
// ErrQueueClosed instead of hanging.
func TestQueueCloseRejectsNewJobs(t *testing.T) {
	q := NewQueue(2, 1, nil, 0)
	q.Close()
	if _, err := q.Submit(context.Background(), func(ctx context.Context) error { return nil }); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Close returned %v", err)
	}
}

// TestConcurrentMixedTraffic hammers every endpoint at once; under -race
// this is the serve package's data-race canary.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				switch i % 4 {
				case 0:
					c.call(ctx, http.MethodPost, "/v1/detect", DetectRequest{Graph: info.Hash, Options: DetectOptions{Seed: uint64(j%3 + 1)}})
				case 1:
					c.call(ctx, http.MethodPost, "/v1/graphs", twoTriangles)
				case 2:
					c.call(ctx, http.MethodGet, "/healthz", nil)
				case 3:
					c.call(ctx, http.MethodGet, "/metrics", nil)
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Runs() > 3 {
		t.Fatalf("%d runs for 3 distinct seeds, want <= 3", s.Runs())
	}
}
