package trace

import (
	"fmt"
	"io"
	"strings"

	"github.com/asamap/asamap/internal/graph"
)

// GaugeSnapshot is one gauge's running sum and sample count.
type GaugeSnapshot struct {
	Name  string
	Sum   float64
	Count uint64
}

// EventSnapshot is one event counter's accumulated count (e.g. the ASA CAM's
// hits, misses, evictions, or overflow pairs).
type EventSnapshot struct {
	Name  string
	Count uint64
}

// Snapshot is a consistent point-in-time copy of a Breakdown, taken under one
// lock acquisition, with deterministic (name-sorted) ordering. It is what the
// serving layer's /metrics endpoint exports.
type Snapshot struct {
	Gauges []GaugeSnapshot
	Events []EventSnapshot
}

// Snapshot copies the breakdown's current state. All values come from one
// critical section, so sums are mutually consistent even while other
// goroutines keep recording.
func (b *Breakdown) Snapshot() Snapshot {
	b.mu.Lock()
	s := Snapshot{Gauges: make([]GaugeSnapshot, 0, len(b.gauges))}
	for _, name := range graph.SortedKeys(b.gauges) {
		g := b.gauges[name]
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Sum: g.sum, Count: g.count})
	}
	for _, name := range graph.SortedKeys(b.events) {
		s.Events = append(s.Events, EventSnapshot{Name: name, Count: b.events[name]})
	}
	b.mu.Unlock()
	return s
}

// WritePrometheus renders the snapshot in Prometheus text exposition format
// under the given metric namespace (e.g. "asamap"): per-gauge sample
// sums/counts (from which a scraper derives means) and event counters.
// Label values are the gauge/event names.
func (s Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "# HELP %s_gauge_sum Running sum of dimensionless gauge samples.\n", namespace)
		fmt.Fprintf(w, "# TYPE %s_gauge_sum counter\n", namespace)
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%s_gauge_sum{gauge=%q} %g\n", namespace, promLabel(g.Name), g.Sum)
		}
		fmt.Fprintf(w, "# HELP %s_gauge_samples_total Number of gauge samples observed.\n", namespace)
		fmt.Fprintf(w, "# TYPE %s_gauge_samples_total counter\n", namespace)
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%s_gauge_samples_total{gauge=%q} %d\n", namespace, promLabel(g.Name), g.Count)
		}
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(w, "# HELP %s_events_total Accumulated kernel event counts (accumulator hits/misses/evictions, per-level folds).\n", namespace)
		fmt.Fprintf(w, "# TYPE %s_events_total counter\n", namespace)
		for _, e := range s.Events {
			fmt.Fprintf(w, "%s_events_total{event=%q} %d\n", namespace, promLabel(e.Name), e.Count)
		}
	}
	return nil
}

// promLabel strips characters that would need escaping inside a Prometheus
// label value beyond what %q already provides (newlines never occur in gauge
// or event names, but the cheap guard keeps the format valid for any input).
func promLabel(s string) string {
	return strings.NewReplacer("\n", " ", "\\", "/").Replace(s)
}
