package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/fault"
)

// fastCfg is a Config with sub-millisecond backoff so retry tests run at
// test speed on the real clock.
func fastCfg() Config {
	return Config{
		PeerRetries:      2,
		PeerBackoff:      Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		BreakerThreshold: 100, // out of the way unless a test lowers it
		PeerTimeout:      10 * time.Second,
	}
}

// TestBackoffCappedExponentialDeterministic pins the schedule: doubling from
// Base, capped at Max, total wait (with jitter) within [wait, 1.5*wait), and
// identical across calls with the same coordinates.
func TestBackoffCappedExponentialDeterministic(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 500 * time.Millisecond, Seed: 9}
	base := []time.Duration{100, 200, 400, 500, 500} // ms, pre-jitter
	for i, want := range base {
		wantD := want * time.Millisecond
		got := b.Wait(123, i+1)
		if got < wantD || got >= wantD+wantD/2 {
			t.Fatalf("attempt %d: wait %v outside [%v, %v)", i+1, got, wantD, wantD+wantD/2)
		}
		if again := b.Wait(123, i+1); again != got {
			t.Fatalf("attempt %d: jitter not deterministic: %v vs %v", i+1, got, again)
		}
	}
	if b.Wait(123, 1) == b.Wait(124, 1) {
		t.Fatal("different keys drew identical jitter — key not reaching the stream")
	}
}

// TestPeerClientRetriesTransient5xx: transient 503s are absorbed by the
// retry loop; the peer sees attempt numbers climb via the fault header...
// none here — plain HTTP: two 503s then success.
func TestPeerClientRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	p := NewPeerClient(0, srv.URL, nil, fastCfg())
	resp, err := p.Do(context.Background(), http.MethodGet, "/x", nil, nil, "k")
	if err != nil || resp.Status != http.StatusOK || string(resp.Body) != "ok" {
		t.Fatalf("Do: %+v, %v", resp, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if st := p.Stats(); st.Retries != 2 || st.Failures != 2 {
		t.Fatalf("stats %+v, want 2 retries / 2 failures", st)
	}
}

// TestPeerClientRetries429: a 429 is a transient answer, not an
// authoritative one — the client backs off, retries once, and returns the
// 200 that follows.
func TestPeerClientRetries429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	p := NewPeerClient(0, srv.URL, nil, fastCfg())
	resp, err := p.Do(context.Background(), http.MethodGet, "/x", nil, nil, "k")
	if err != nil || resp.Status != http.StatusOK || string(resp.Body) != "ok" {
		t.Fatalf("Do: %+v, %v", resp, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (one 429 + success)", calls.Load())
	}
	if st := p.Stats(); st.Retries != 1 || st.Failures != 1 {
		t.Fatalf("stats %+v, want 1 retry / 1 failure", st)
	}
}

// TestPeerClientReturnsFinal5xx: a persistent 503 comes back as the final
// response (not an error) after exhausting retries — the caller decides what
// a definitive 5xx means.
func TestPeerClientReturnsFinal5xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	p := NewPeerClient(0, srv.URL, nil, fastCfg())
	resp, err := p.Do(context.Background(), http.MethodGet, "/x", nil, nil, "k")
	if err != nil || resp == nil || resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("Do: %+v, %v — want the final 503 response", resp, err)
	}
	if calls.Load() != 3 { // 1 + 2 retries
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// TestPeerClient4xxIsAuthoritative: a 404 is an answer, not a failure — no
// retries, breaker unaffected.
func TestPeerClient4xxIsAuthoritative(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer srv.Close()

	cfg := fastCfg()
	cfg.BreakerThreshold = 1
	p := NewPeerClient(0, srv.URL, nil, cfg)
	resp, err := p.Do(context.Background(), http.MethodGet, "/x", nil, nil, "k")
	if err != nil || resp.Status != http.StatusNotFound {
		t.Fatalf("Do: %+v, %v", resp, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 was retried: %d calls", calls.Load())
	}
	if p.Breaker().State() != BreakerClosed {
		t.Fatal("404 tripped the breaker")
	}
}

// TestPeerClientBreakerOpenRejectsWithoutWire: once the breaker opens, calls
// fail fast with ErrPeerDown and nothing reaches the transport.
func TestPeerClientBreakerOpenRejectsWithoutWire(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	cfg := fastCfg()
	cfg.BreakerThreshold = 2
	cfg.PeerRetries = -1 // none: each Do is one attempt
	cfg.BreakerCooldown = time.Hour
	p := NewPeerClient(3, srv.URL, nil, cfg)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := p.Do(ctx, http.MethodGet, "/x", nil, nil, "k"); err != nil {
			t.Fatalf("attempt %d returned transport error %v, want 503 response", i, err)
		}
	}
	wire := calls.Load()
	_, err := p.Do(ctx, http.MethodGet, "/x", nil, nil, "k")
	var down *ErrPeerDown
	if !errors.As(err, &down) || down.Peer != 3 {
		t.Fatalf("post-trip Do returned %v, want ErrPeerDown{Peer: 3}", err)
	}
	if calls.Load() != wire {
		t.Fatal("breaker-rejected call still reached the wire")
	}
}

// TestPeerClientTimeoutOnFakeClock: a hung peer is abandoned when the
// injected clock passes the timeout — no real-time sleeping, no goroutine
// leak (the attempt goroutine is joined via request-context cancellation).
func TestPeerClientTimeoutOnFakeClock(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	fake := clock.NewFake(time.Unix(0, 0))
	cfg := fastCfg()
	cfg.Clock = fake
	cfg.PeerTimeout = 2 * time.Second
	cfg.PeerRetries = -1
	p := NewPeerClient(0, srv.URL, nil, cfg)

	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := p.Do(context.Background(), http.MethodGet, "/hang", nil, nil, "k")
		done <- err
	}()
	for fake.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	fake.Advance(2 * time.Second)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("timed-out call returned success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do did not return after the clock passed the timeout")
	}
	wg.Wait()
	if st := p.Stats(); st.Timeouts != 1 {
		t.Fatalf("stats %+v, want 1 timeout", st)
	}
}

// TestPeerClientFaultTransportAttempts: wired through a fault.Transport that
// drops everything, the client burns exactly 1+retries attempts and surfaces
// the injected TransportError; the injector's stats see every attempt.
func TestPeerClientFaultTransportAttempts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("never"))
	}))
	defer srv.Close()

	inj, err := fault.New(fault.Config{Seed: 1, DropProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPeerClient(1, srv.URL, &fault.Transport{Inj: inj, From: 0, To: 1}, fastCfg())
	_, derr := p.Do(context.Background(), http.MethodGet, "/x", nil, nil, "key-1")
	var te *fault.TransportError
	if !errors.As(derr, &te) || te.Peer != 1 {
		t.Fatalf("Do returned %v, want injected TransportError for peer 1", derr)
	}
	if got := inj.Stats().Drops; got != 3 {
		t.Fatalf("injector saw %d drops, want 3 (1 try + 2 retries)", got)
	}
	if st := p.Stats(); st.Requests != 3 || st.Failures != 3 {
		t.Fatalf("stats %+v, want 3 requests / 3 failures", st)
	}
}

// TestPeerClientFault5xxThenRecovery: an injected 5xx on the first attempt
// draws a fresh outcome on the retry (the attempt coordinate reaches the
// injector via the fault headers), so a transiently faulty path heals.
func TestPeerClientFault5xxThenRecovery(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(fault.HeaderFaultKey) != "" || r.Header.Get(fault.HeaderFaultAttempt) != "" {
			t.Error("fault headers leaked to the wire")
		}
		calls.Add(1)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	// Find a key whose attempt-0 draw is a 5xx but heals within the retry
	// budget — deterministic, so scan once and pin.
	inj, err := fault.New(fault.Config{Seed: 7, FailProb: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPeerClient(1, srv.URL, &fault.Transport{Inj: inj, From: 0, To: 1}, fastCfg())
	var sawRetry bool
	for i := 0; i < 64 && !sawRetry; i++ {
		key := "probe-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		before := p.Stats().Retries
		resp, err := p.Do(context.Background(), http.MethodGet, "/x", nil, nil, key)
		if err == nil && resp.Status == http.StatusOK && p.Stats().Retries > before {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no key drew 5xx-then-success within 64 probes at FailProb 0.6 — retry recovery untested")
	}
	if calls.Load() == 0 {
		t.Fatal("no request ever reached the server")
	}
}
