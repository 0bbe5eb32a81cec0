package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/obs/propagate"
)

// TestMiddlewareTraceExtraction: a propagated X-Asamap-Trace header roots the
// request span under the remote parent, records the hop depth, echoes the
// trace ID on the response, and is consumed before the handler runs.
func TestMiddlewareTraceExtraction(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()

	var sawHeader string
	var sawTrace uint64
	var sawHop int
	h := s.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawHeader = r.Header.Get(propagate.Header)
		sawTrace, sawHop = RequestTrace(r.Context())
	}))

	pc := propagate.Context{TraceID: 0xfeedface, Parent: 0xbead, Hop: 2}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/healthz", nil)
	propagate.Inject(req.Header, pc)
	h.ServeHTTP(rec, req)

	if sawHeader != "" {
		t.Errorf("trace header leaked into the handler: %q", sawHeader)
	}
	if sawTrace != pc.TraceID || sawHop != pc.Hop {
		t.Errorf("RequestTrace = (%x, %d), want (%x, %d)", sawTrace, sawHop, pc.TraceID, pc.Hop)
	}
	if got := rec.Header().Get(propagate.ResponseHeader); got != propagate.FormatID(pc.TraceID) {
		t.Errorf("response trace id %q, want %q", got, propagate.FormatID(pc.TraceID))
	}

	spans := s.tracer.TraceSpans(pc.TraceID)
	if len(spans) != 1 {
		t.Fatalf("got %d spans under the propagated trace, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "request" || !sp.Remote || sp.Parent != pc.Parent {
		t.Errorf("remote request root = %+v, want remote span parented at %x", sp, pc.Parent)
	}
	hopAttr := ""
	for _, a := range sp.Attrs {
		if a.Key == "hop" {
			hopAttr = a.Value
		}
	}
	if hopAttr != "2" {
		t.Errorf("hop attr = %q, want 2", hopAttr)
	}

	// An untraced request starts a fresh trace and still reports its ID.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("GET", "/healthz", nil))
	fresh := rec2.Header().Get(propagate.ResponseHeader)
	if fresh == "" || fresh == propagate.FormatID(pc.TraceID) {
		t.Errorf("untraced request should mint a fresh trace id, got %q", fresh)
	}
}

// TestTraceByIDEndpoint: /debug/trace/{id} returns exactly the spans recorded
// under one trace, 400s malformed IDs, and 404s unknown traces.
func TestTraceByIDEndpoint(t *testing.T) {
	_, hs, c := newTestServer(t, DefaultConfig())
	c.detect(c.upload(twoTriangles).Hash, DetectOptions{Seed: 2})

	// The detect request reported its trace ID; collect that trace.
	req, _ := http.NewRequest("GET", hs.URL+"/healthz", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tid := resp.Header.Get(propagate.ResponseHeader)
	if tid == "" {
		t.Fatal("no X-Asamap-Trace-Id on the response")
	}

	resp, err = hs.Client().Get(hs.URL + "/debug/trace/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s: status %d", tid, resp.StatusCode)
	}
	var payload struct {
		Trace string        `json:"trace"`
		Spans []SpanPayload `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Trace != tid || len(payload.Spans) == 0 {
		t.Fatalf("trace payload = %+v", payload)
	}
	for _, sp := range payload.Spans {
		if sp.Trace != tid {
			t.Errorf("span %s carries trace %q, want %q", sp.ID, sp.Trace, tid)
		}
	}

	for path, want := range map[string]int{
		"/debug/trace/nothex":           http.StatusBadRequest,
		"/debug/trace/ffffffffffffffff": http.StatusNotFound,
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestMetricsSnapshotEndpoint: the federation wire carries the server's
// counters and full histogram state, and the histograms merge exactly.
func TestMetricsSnapshotEndpoint(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	c.detect(c.upload(twoTriangles).Hash, DetectOptions{Seed: 7})

	var snap MetricsSnapshot
	c.must(http.MethodGet, "/metrics/snapshot", nil, &snap)
	if snap.Counters["jobs_completed_total"] < 1 || snap.Counters["runs_total"] < 1 {
		t.Errorf("counters missing work: %+v", snap.Counters)
	}
	if snap.Gauges["queue_capacity"] <= 0 || snap.Gauges["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("gauges missing: %+v", snap.Gauges)
	}
	for _, name := range []string{"request_seconds", "queue_wait_seconds", "go_gc_pause_seconds"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Errorf("histogram %s missing from snapshot", name)
			continue
		}
		// Merging the wire state into itself must double every count exactly —
		// the property cluster federation relies on.
		h2, err := h.Merge(h)
		if err != nil {
			t.Errorf("histogram %s self-merge: %v", name, err)
			continue
		}
		if h2.Count != 2*h.Count || h2.SumNS != 2*h.SumNS {
			t.Errorf("histogram %s merge count %d sum %v, want %d and %v", name, h2.Count, h2.SumNS, 2*h.Count, 2*h.SumNS)
		}
	}
	if snap.Histograms["request_seconds"].Count < 1 {
		t.Error("request_seconds histogram saw no requests")
	}
}

// TestMetricsRuntimeExposition: /metrics includes the trace-drop counters and
// Go runtime gauges alongside the existing histograms.
func TestMetricsRuntimeExposition(t *testing.T) {
	_, hs, _ := newTestServer(t, DefaultConfig())
	resp, err := hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	body := string(data)
	for _, want := range []string{
		"asamap_trace_dropped_total 0",
		"asamap_trace_dropped_traces_total 0",
		"asamap_go_goroutines ",
		"asamap_go_heap_alloc_bytes ",
		"asamap_go_heap_objects ",
		"asamap_go_gc_runs_total ",
		"# TYPE asamap_go_gc_pause_seconds histogram",
		`asamap_go_gc_pause_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestProfileEndpoint: one-shot pprof snapshots — heap immediately, cpu for a
// bounded window, and clean rejections for bad parameters.
func TestProfileEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t, DefaultConfig())

	resp, err := hs.Client().Get(hs.URL + "/debug/profile?kind=heap")
	if err != nil {
		t.Fatal(err)
	}
	heap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(heap) == 0 {
		t.Errorf("heap profile: status %d, %d bytes", resp.StatusCode, len(heap))
	}

	resp, err = hs.Client().Get(hs.URL + "/debug/profile?kind=cpu&seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(cpu) == 0 {
		t.Errorf("cpu profile: status %d, %d bytes", resp.StatusCode, len(cpu))
	}

	for _, path := range []string{
		"/debug/profile?kind=goroutine",
		"/debug/profile?kind=cpu&seconds=zero",
		"/debug/profile?kind=cpu&seconds=0",
	} {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
