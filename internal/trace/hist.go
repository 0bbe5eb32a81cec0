package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultLatencyBounds returns the fixed bucket upper bounds used for the
// serving layer's latency histograms: a coarse exponential ladder from 100µs
// to 60s. Fixed buckets (rather than adaptive ones) make merges exact and
// snapshots deterministic: two histograms over the same bounds merge by
// integer addition, so aggregation order can never change a quantile.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		100 * time.Microsecond,
		250 * time.Microsecond,
		500 * time.Microsecond,
		1 * time.Millisecond,
		2500 * time.Microsecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		1 * time.Second,
		2500 * time.Millisecond,
		5 * time.Second,
		10 * time.Second,
		30 * time.Second,
		60 * time.Second,
	}
}

// Histogram is a fixed-bucket duration histogram, safe for concurrent
// Observe. Bucket i counts observations d <= bounds[i] (cumulatively
// disjoint: the smallest such i); the final implicit bucket counts
// everything above the largest bound.
type Histogram struct {
	bounds []time.Duration

	// One short critical section per Observe guards the mutable state.
	mu     sync.Mutex
	counts []uint64
	sum    time.Duration
	total  uint64
}

// NewHistogram returns a histogram over the given strictly increasing bucket
// upper bounds. It panics on empty or unsorted bounds — a programmer error,
// caught at construction rather than as silently wrong quantiles.
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		panic("trace: NewHistogram needs at least one bucket bound")
	}
	own := make([]time.Duration, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			panic(fmt.Sprintf("trace: histogram bounds not strictly increasing at %d (%v <= %v)",
				i, own[i], own[i-1]))
		}
	}
	return &Histogram{bounds: own, counts: make([]uint64, len(own)+1)}
}

// NewLatencyHistogram returns a histogram over DefaultLatencyBounds.
func NewLatencyHistogram() *Histogram { return NewHistogram(DefaultLatencyBounds()) }

// DefaultGCPauseBounds returns the fixed bucket upper bounds for GC
// stop-the-world pause histograms: a finer exponential ladder from 10µs to
// 1s, matched to the sub-millisecond pauses of Go's collector. All nodes use
// the same bounds so cluster federation can Merge them exactly.
func DefaultGCPauseBounds() []time.Duration {
	return []time.Duration{
		10 * time.Microsecond,
		25 * time.Microsecond,
		50 * time.Microsecond,
		100 * time.Microsecond,
		250 * time.Microsecond,
		500 * time.Microsecond,
		1 * time.Millisecond,
		2500 * time.Microsecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		1 * time.Second,
	}
}

// NewHistogramFromSnapshot reconstructs a live histogram from a snapshot
// that crossed the wire (the /metrics/snapshot federation path). Unlike
// NewHistogram it validates with errors rather than panics — remote data is
// input, not programmer error.
func NewHistogramFromSnapshot(s HistogramSnapshot) (*Histogram, error) {
	if len(s.Bounds) == 0 {
		return nil, fmt.Errorf("trace: snapshot has no bucket bounds")
	}
	for i := 1; i < len(s.Bounds); i++ {
		if s.Bounds[i] <= s.Bounds[i-1] {
			return nil, fmt.Errorf("trace: snapshot bounds not strictly increasing at %d (%v <= %v)",
				i, s.Bounds[i], s.Bounds[i-1])
		}
	}
	if len(s.Counts) != len(s.Bounds)+1 {
		return nil, fmt.Errorf("trace: snapshot has %d counts for %d bounds (want %d)",
			len(s.Counts), len(s.Bounds), len(s.Bounds)+1)
	}
	h := &Histogram{
		bounds: append([]time.Duration(nil), s.Bounds...),
		counts: append([]uint64(nil), s.Counts...),
		sum:    s.Sum,
		total:  s.Count,
	}
	return h, nil
}

// Observe records one duration sample. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += d
	h.total++
	h.mu.Unlock()
}

// Merge adds other's counts into h. The bucket bounds must be identical;
// merging is then exact integer addition, so any merge order yields the same
// histogram — the determinism property the tests pin.
func (h *Histogram) Merge(other *Histogram) error {
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("trace: histogram bounds differ (%d vs %d buckets)", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("trace: histogram bound %d differs (%v vs %v)", i, h.bounds[i], other.bounds[i])
		}
	}
	snap := other.Snapshot()
	h.mu.Lock()
	for i, c := range snap.Counts {
		h.counts[i] += c
	}
	h.sum += snap.Sum
	h.total += snap.Count
	h.mu.Unlock()
	return nil
}

// HistogramSnapshot is a consistent point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Bounds []time.Duration // bucket upper bounds
	Counts []uint64        // len(Bounds)+1; last bucket is the overflow
	Sum    time.Duration
	Count  uint64
}

// Snapshot copies the histogram state under one lock acquisition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum,
		Count:  h.total,
	}
	copy(s.Counts, h.counts)
	h.mu.Unlock()
	return s
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the upper
// bound of the bucket holding the ceil(q*Count)-th smallest observation.
// Observations in the overflow bucket report the largest finite bound (a
// lower bound in that case — "at least this slow"). Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) || rank == 0 {
		rank++ // ceil
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// P50 returns the median's bucket bound.
func (s HistogramSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P90 returns the 90th percentile's bucket bound.
func (s HistogramSnapshot) P90() time.Duration { return s.Quantile(0.90) }

// P99 returns the 99th percentile's bucket bound.
func (s HistogramSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// WritePrometheus renders the snapshot in Prometheus histogram exposition
// format under the given fully qualified metric name (e.g.
// "asamap_request_seconds"): cumulative le buckets in seconds, +Inf, _sum,
// and _count.
func (s HistogramSnapshot) WritePrometheus(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatSeconds(b), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum.Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	return err
}

// formatSeconds renders a duration bound as a seconds string without
// trailing zeros ("0.005", "2.5", "60").
func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}
