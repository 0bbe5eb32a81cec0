package serve

import (
	"bytes"
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

// observePauses folds the GC pauses of the cycles ms records beyond the
// previous call into the pause histogram. Cycle i (0-based) sits at
// PauseNs[i%256], and only the last 256 are kept: if more cycles than that
// elapsed between scrapes the older pauses are lost (go_gc_runs_total still
// advances, so the gap is visible).
func (rt *runtimeStats) observePauses(ms *runtime.MemStats) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ms.NumGC <= rt.lastNumGC {
		return
	}
	from := rt.lastNumGC
	if ms.NumGC-from > 256 {
		from = ms.NumGC - 256
	}
	for i := from; i < ms.NumGC; i++ {
		rt.pauseHist.Observe(time.Duration(ms.PauseNs[i%256]))
	}
	rt.lastNumGC = ms.NumGC
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
