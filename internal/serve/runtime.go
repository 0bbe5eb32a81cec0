package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	rpprof "runtime/pprof"
	"sync"
	"time"

	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/obs/propagate"
	"github.com/asamap/asamap/internal/trace"
)

// runtimeStats tracks Go runtime observability state that needs memory
// between scrapes: the GC pause histogram is fed from the MemStats pause
// ring, so we must remember which GC cycles have already been observed.
type runtimeStats struct {
	mu        sync.Mutex
	lastNumGC uint32
	pauseHist *trace.Histogram
}

func newRuntimeStats() *runtimeStats {
	return &runtimeStats{pauseHist: trace.NewHistogram(trace.DefaultGCPauseBounds())}
}

// sample reads MemStats and folds any GC pauses since the previous sample
// into the pause histogram. MemStats keeps only the last 256 pauses; if more
// cycles than that elapsed between scrapes the overflow is simply lost (the
// gc_runs counter still advances, so the gap is visible).
func (rt *runtimeStats) sample() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if delta := ms.NumGC - rt.lastNumGC; delta > 0 {
		if delta > 256 {
			delta = 256
		}
		for i := ms.NumGC - delta; i < ms.NumGC; i++ {
			rt.pauseHist.Observe(time.Duration(ms.PauseNs[(i+255)%256]))
		}
		rt.lastNumGC = ms.NumGC
	}
	return ms
}

// HistWire is a trace.HistogramSnapshot in integer-nanosecond JSON form, the
// shape /metrics/snapshot ships between nodes. Integer fields (rather than
// Go duration strings or float seconds) keep cluster merges exact.
type HistWire struct {
	BoundsNS []int64  `json:"bounds_ns"`
	Counts   []uint64 `json:"counts"`
	SumNS    int64    `json:"sum_ns"`
	Count    uint64   `json:"count"`
}

// NewHistWire converts a snapshot to wire form.
func NewHistWire(s trace.HistogramSnapshot) HistWire {
	out := HistWire{
		BoundsNS: make([]int64, len(s.Bounds)),
		Counts:   s.Counts,
		SumNS:    s.Sum.Nanoseconds(),
		Count:    s.Count,
	}
	for i, b := range s.Bounds {
		out.BoundsNS[i] = b.Nanoseconds()
	}
	return out
}

// Snapshot converts back to the exact snapshot the sender held.
func (hw HistWire) Snapshot() trace.HistogramSnapshot {
	out := trace.HistogramSnapshot{
		Bounds: make([]time.Duration, len(hw.BoundsNS)),
		Counts: hw.Counts,
		Sum:    time.Duration(hw.SumNS),
		Count:  hw.Count,
	}
	for i, b := range hw.BoundsNS {
		out.Bounds[i] = time.Duration(b)
	}
	return out
}

// MetricsSnapshot is the machine-readable form of /metrics that cluster
// federation consumes: flat counter and gauge maps plus full histogram
// states. Counters and histogram counts merge by addition; gauges merge by
// summation (they are all extensive quantities — queue depths, heap bytes,
// entry counts — whose cluster-wide total is the meaningful number).
type MetricsSnapshot struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]HistWire `json:"histograms"`
}

// MetricsSnapshot captures the server's current metric state.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	qs, cs, rs := s.queue.Stats(), s.cache.Stats(), s.registry.Stats()
	ms := s.rt.sample()
	droppedSpans, droppedTraces := s.tracer.Dropped()
	return MetricsSnapshot{
		Counters: map[string]uint64{
			"jobs_submitted_total":         qs.Submitted,
			"jobs_rejected_total":          qs.Rejected,
			"jobs_completed_total":         qs.Completed,
			"jobs_canceled_total":          qs.Canceled,
			"cache_hits_total":             cs.Hits,
			"cache_misses_total":           cs.Misses,
			"cache_coalesced_total":        cs.Coalesced,
			"cache_evictions_total":        cs.Evictions,
			"warm_parent_decodes_total":    cs.ParentDecodes,
			"registry_parses_total":        rs.Parses,
			"registry_raw_hits_total":      rs.RawHits,
			"registry_delta_applies_total": rs.DeltaApplies,
			"runs_total":                   s.runs.Load(),
			"trace_dropped_total":          droppedSpans,
			"trace_dropped_traces_total":   droppedTraces,
			"go_gc_runs_total":             uint64(ms.NumGC),
		},
		Gauges: map[string]float64{
			"queue_capacity":      float64(qs.Capacity),
			"queue_outstanding":   float64(qs.Outstanding),
			"cache_entries":       float64(cs.Entries),
			"registry_graphs":     float64(rs.Graphs),
			"registry_versions":   float64(rs.Versions),
			"go_goroutines":       float64(runtime.NumGoroutine()),
			"go_heap_alloc_bytes": float64(ms.HeapAlloc),
			"go_heap_objects":     float64(ms.HeapObjects),
		},
		Histograms: map[string]HistWire{
			"request_seconds":     NewHistWire(s.reqHist.Snapshot()),
			"queue_wait_seconds":  NewHistWire(s.waitHist.Snapshot()),
			"go_gc_pause_seconds": NewHistWire(s.rt.pauseSnapshot()),
		},
	}
}

// pauseSnapshot returns the GC pause histogram state.
func (rt *runtimeStats) pauseSnapshot() trace.HistogramSnapshot {
	return rt.pauseHist.Snapshot()
}

// handleMetricsSnapshot serves the JSON twin of /metrics for federation.
func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// Tracer exposes the server's span ring so the cluster layer can collect
// per-trace spans and dropped counters without re-wiring the middleware.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// TraceSpans returns the retained spans recorded under the given trace ID.
func (s *Server) TraceSpans(traceID uint64) []obs.SpanData {
	return s.tracer.TraceSpans(traceID)
}

// handleTraceByID serves the node-local spans of one distributed trace:
// GET /debug/trace/{id} with a 16-hex-digit trace ID. The cluster router
// overrides this route with a fan-out that stitches every node's segment;
// this handler is the per-node collection primitive it scrapes.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, err := propagate.ParseID(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	spans := s.TraceSpans(id)
	if len(spans) == 0 {
		httpError(w, http.StatusNotFound, "trace not found")
		return
	}
	epoch := s.tracer.Epoch()
	out := make([]SpanPayload, len(spans))
	for i, sp := range spans {
		out[i] = NewSpanPayload(sp, epoch)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace": propagate.FormatID(id),
		"spans": out,
	})
}

// profileMaxSeconds caps a CPU profile request; profileDefaultSeconds is the
// window when ?seconds is absent.
const (
	profileDefaultSeconds = 2
	profileMaxSeconds     = 30
)

// handleProfile serves one-shot pprof snapshots: ?kind=heap returns the
// current heap profile, ?kind=cpu&seconds=N samples CPU for N seconds
// (clamped to profileMaxSeconds). Unlike the /debug/pprof tree this endpoint
// is load-tool-friendly: one URL, binary pprof bytes, and a 409 when a CPU
// profile is already running (the runtime allows only one at a time).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "heap"
	}
	switch kind {
	case "heap":
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := rpprof.Lookup("heap").WriteTo(w, 0); err != nil {
			s.logger.Error("heap profile write failed", "err", err)
		}
	case "cpu":
		seconds := profileDefaultSeconds
		if v := r.URL.Query().Get("seconds"); v != "" {
			parsed, err := parsePositiveInt(v)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad seconds: "+err.Error())
				return
			}
			seconds = parsed
		}
		if seconds > profileMaxSeconds {
			seconds = profileMaxSeconds
		}
		if !s.profiling.CompareAndSwap(false, true) {
			httpError(w, http.StatusConflict, "a CPU profile is already running")
			return
		}
		defer s.profiling.Store(false)
		var buf bytes.Buffer
		if err := rpprof.StartCPUProfile(&buf); err != nil {
			httpError(w, http.StatusConflict, "cpu profile: "+err.Error())
			return
		}
		select {
		case <-s.clk.After(time.Duration(seconds) * time.Second):
		case <-r.Context().Done():
		}
		rpprof.StopCPUProfile()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(buf.Bytes())
	default:
		httpError(w, http.StatusBadRequest, "kind must be heap or cpu")
	}
}

// writeRuntimeMetrics appends the Go runtime gauges and trace-drop counters
// to the Prometheus exposition.
func (s *Server) writeRuntimeMetrics(w http.ResponseWriter) {
	ms := s.rt.sample()
	droppedSpans, droppedTraces := s.tracer.Dropped()
	fmt.Fprintf(w, "# HELP asamap_trace_dropped_total Spans evicted from the trace ring before collection.\n")
	fmt.Fprintf(w, "# TYPE asamap_trace_dropped_total counter\nasamap_trace_dropped_total %d\n", droppedSpans)
	fmt.Fprintf(w, "# TYPE asamap_trace_dropped_traces_total counter\nasamap_trace_dropped_traces_total %d\n", droppedTraces)
	fmt.Fprintf(w, "# TYPE asamap_go_goroutines gauge\nasamap_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE asamap_go_heap_alloc_bytes gauge\nasamap_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# TYPE asamap_go_heap_objects gauge\nasamap_go_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(w, "# TYPE asamap_go_gc_runs_total counter\nasamap_go_gc_runs_total %d\n", ms.NumGC)
	s.rt.pauseSnapshot().WritePrometheus(w, "asamap_go_gc_pause_seconds",
		"GC stop-the-world pause durations.")
}
