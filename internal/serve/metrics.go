package serve

import (
	"io"
	"net/http"
	"runtime"

	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/trace"
)

// MetricsSnapshot is every metric a node exports: /metrics renders it as
// Prometheus text, /metrics/snapshot ships it as JSON, and cluster
// federation merges it. Each key is a Prometheus series name without the
// asamap_ prefix, labels included (`events_total{event="AccumHits"}`).
// Counters and histogram counts merge by addition; gauges merge by
// summation (they are all extensive quantities — queue depths, heap bytes,
// kernel seconds — whose cluster-wide total is the meaningful number).
type MetricsSnapshot struct {
	Counters   map[string]uint64                  `json:"counters"`
	Gauges     map[string]float64                 `json:"gauges"`
	Histograms map[string]trace.HistogramSnapshot `json:"histograms"`
}

// WritePrometheus renders the snapshot in Prometheus text exposition format
// under the asamap_ prefix through trace.WritePrometheus.
func (m MetricsSnapshot) WritePrometheus(w io.Writer) error {
	return trace.WritePrometheus(w, "asamap", m.Counters, m.Gauges, m.Histograms)
}

// MetricsSnapshot captures the server's current metric state, with the
// placement's cluster series when the server is a cluster node.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	qs, cs, rs := s.queue.Stats(), s.cache.Stats(), s.registry.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.rt.observePauses(&ms)
	droppedSpans, droppedTraces := s.tracer.Dropped()
	snap := MetricsSnapshot{
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
		Histograms: map[string]trace.HistogramSnapshot{
			"request_seconds":     s.reqHist.Snapshot(),
			"queue_wait_seconds":  s.waitHist.Snapshot(),
			"go_gc_pause_seconds": s.rt.pauseHist.Snapshot(),
		},
	}
	// Kernel wall time comes from the tracer's span totals, which count every
	// ended kernel span — canceled and failed runs included — however small
	// the trace ring.
	totals := s.tracer.Totals()
	for _, k := range trace.Kernels() {
		if t := totals[k]; t.Count > 0 {
			label := `{kernel="` + k + `"}`
			snap.Gauges["kernel_seconds_total"+label] = t.Duration.Seconds()
			snap.Counters["kernel_invocations_total"+label] = t.Count
		}
	}
	s.folded.AddSeries(snap.Counters, snap.Gauges)
	if s.placement != nil {
		s.placement.AddMetrics(snap)
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.MetricsSnapshot().WritePrometheus(w)
}

// handleMetricsSnapshot serves the JSON twin of /metrics for federation.
func (s *Server) handleMetricsSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// foldRun folds one successful run's accumulator events and sweep gauges
// into f.
func foldRun(f *trace.RunFold, res *infomap.Result) {
	sweeps := make([]trace.Sweep, len(res.SweepLog))
	for i, sw := range res.SweepLog {
		sweeps[i] = trace.Sweep{Level: sw.Level, Stats: sw.Stats, Imbalance: sw.Sched.Imbalance, Steals: uint64(sw.Sched.Steals)}
	}
	f.Add(res.TotalStats(), sweeps)
}
