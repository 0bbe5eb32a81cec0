package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/obs"
)

// TestRequestIDCorrelation: a client-sent X-Request-Id is echoed back; absent
// one, the server generates a 16-hex-digit ID, distinct across requests.
func TestRequestIDCorrelation(t *testing.T) {
	_, hs, _ := newTestServer(t, DefaultConfig())

	req, _ := http.NewRequest("GET", hs.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-id")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-chosen-id" {
		t.Errorf("client request ID not echoed: got %q", got)
	}

	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := hs.Client().Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if !hexID.MatchString(id) {
			t.Fatalf("generated request ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
}

// TestPanicRecoveryMiddleware: a panicking handler yields a 500 JSON error
// (when nothing was written yet) and a structured log line carrying the
// request ID and a stack trace — the process survives.
func TestPanicRecoveryMiddleware(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Logger = obs.NewLogger(&logBuf, slog.LevelInfo)
	s := New(cfg)
	defer s.Close()

	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom: injected test panic")
	}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/panic", nil)
	req.Header.Set("X-Request-Id", "panic-req-1")
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Errorf("panic response is not the JSON error shape: %s", rec.Body.Bytes())
	}
	logged := logBuf.String()
	for _, want := range []string{"panic recovered", "injected test panic", "request_id=panic-req-1", "middleware_test.go"} {
		if !strings.Contains(logged, want) {
			t.Errorf("panic log missing %q:\n%s", want, logged)
		}
	}
}

// TestRequestLogLine: every request emits one structured line with method,
// path, status, and the request ID.
func TestRequestLogLine(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Logger = obs.NewLogger(&logBuf, slog.LevelInfo)
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	req, _ := http.NewRequest("GET", hs.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "log-req-9")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	logged := logBuf.String()
	for _, want := range []string{"method=GET", "path=/healthz", "status=200", "request_id=log-req-9"} {
		if !strings.Contains(logged, want) {
			t.Errorf("request log missing %q:\n%s", want, logged)
		}
	}
}

// TestHealthzBuildInfo: /healthz carries the embedded build info and uptime.
func TestHealthzBuildInfo(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	var payload healthPayload
	c.must(http.MethodGet, "/healthz", nil, &payload)
	if payload.Build.GoVersion == "" {
		t.Errorf("healthz build info missing go_version: %+v", payload.Build)
	}
	if payload.Queue.Capacity < 1 {
		t.Errorf("healthz missing queue stats: %+v", payload.Queue)
	}
}

// TestMetricsObservability: after one detection, /metrics exposes the request
// and queue-wait latency histograms and the accumulator event counters.
func TestMetricsObservability(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	c.detect(c.upload(twoTriangles).Hash, DetectOptions{Accum: "asa", Seed: 3})
	body := string(c.must(http.MethodGet, "/metrics", nil, nil).body)
	for _, want := range []string{
		"# TYPE asamap_request_seconds histogram",
		"asamap_request_seconds_count",
		`asamap_request_seconds_bucket{le="+Inf"}`,
		"# TYPE asamap_queue_wait_seconds histogram",
		"asamap_queue_wait_seconds_count 1",
		"# TYPE asamap_events_total counter",
		// Zero-count events are suppressed, so only the counters this tiny
		// graph actually exercises are asserted (no CAM evictions here).
		`asamap_events_total{event="AccumHits"}`,
		`asamap_events_total{event="AccumMisses"}`,
		`asamap_events_total{event="AccumAccumulates"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDetectResponseAccumCounters: the response body carries the
// deterministic accumulator counters, and they replay byte-identically from
// cache.
func TestDetectResponseAccumCounters(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	r1 := c.detect(info.Hash, DetectOptions{Accum: "asa", Seed: 5, Workers: 1})
	if r1.Accum.Hits == 0 && r1.Accum.Misses == 0 {
		t.Errorf("response accum counters all zero: %+v", r1.Accum)
	}
	// Different worker count, same seed: cache key identical (workers are
	// excluded from the fingerprint), so the counters must replay exactly.
	if r2 := c.detect(info.Hash, DetectOptions{Accum: "asa", Seed: 5, Workers: 3}); !bytes.Equal(r1.Raw, r2.Raw) {
		t.Errorf("accum counters broke byte replay:\n%s\n%s", r1.Raw, r2.Raw)
	}
}

// TestDebugTraceEndpoint: /debug/trace returns the retained spans with the
// request → run → level → sweep nesting reachable through parent links.
func TestDebugTraceEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	c.detect(c.upload(twoTriangles).Hash, DetectOptions{Seed: 2})
	var payload struct {
		Retained int           `json:"retained"`
		Spans    []SpanPayload `json:"spans"`
	}
	c.must(http.MethodGet, "/debug/trace?n=512", nil, &payload)
	if payload.Retained == 0 || len(payload.Spans) == 0 {
		t.Fatalf("no spans retained: %+v", payload)
	}
	byID := map[string]SpanPayload{}
	count := map[string]int{}
	for _, sp := range payload.Spans {
		byID[sp.ID] = sp
		count[sp.Name]++
	}
	for _, name := range []string{"request", "run", "level", "sweep", "FindBestCommunity", "UpdateMembers"} {
		if count[name] == 0 {
			t.Errorf("no %q span on /debug/trace (have %v)", name, count)
		}
	}
	// Walk one sweep up to its root: sweep → level → run → request.
	for _, sp := range payload.Spans {
		if sp.Name != "sweep" {
			continue
		}
		chain := []string{}
		for cur, ok := sp, true; ok; cur, ok = byID[cur.Parent] {
			chain = append(chain, cur.Name)
			if cur.Parent == "" {
				break
			}
		}
		want := []string{"sweep", "level", "run", "request"}
		if len(chain) != len(want) {
			t.Fatalf("sweep ancestry = %v, want %v", chain, want)
		}
		for i := range want {
			if chain[i] != want[i] {
				t.Fatalf("sweep ancestry = %v, want %v", chain, want)
			}
		}
		break
	}

	// Bad n is rejected.
	if r := c.send(http.MethodGet, "/debug/trace?n=zero", nil); r.status != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", r.status)
	}
}
