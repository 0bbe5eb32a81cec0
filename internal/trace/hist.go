package trace

import (
	"fmt"
	"io"
	"slices"
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
// the same bounds so cluster federation can merge their snapshots exactly.
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

// HistogramSnapshot is a consistent point-in-time copy of a Histogram, and
// its wire form between nodes: a time.Duration encodes as integer
// nanoseconds, so a snapshot crosses JSON exactly and merges stay integer
// addition.
type HistogramSnapshot struct {
	Bounds []time.Duration `json:"bounds_ns"` // bucket upper bounds
	Counts []uint64        `json:"counts"`    // len(Bounds)+1; last bucket is the overflow
	SumNS  time.Duration   `json:"sum_ns"`
	Count  uint64          `json:"count"`
}

// Merge returns the bucket-by-bucket sum of s and o. A snapshot may have
// crossed the wire, so one that is malformed — no bounds, bounds not strictly
// increasing, or other than len(Bounds)+1 counts — is an error rather than a
// panic, and so are differing bounds. A zero receiver merges as the
// identity, so a fold over snapshots can start from it. Merging is exact
// integer addition: any merge order yields the same snapshot.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if err := o.check(); err != nil {
		return HistogramSnapshot{}, err
	}
	if len(s.Bounds) == 0 && len(s.Counts) == 0 && s.SumNS == 0 && s.Count == 0 {
		s = HistogramSnapshot{Bounds: o.Bounds, Counts: make([]uint64, len(o.Counts))}
	} else if err := s.check(); err != nil {
		return HistogramSnapshot{}, err
	}
	if !slices.Equal(s.Bounds, o.Bounds) {
		return HistogramSnapshot{}, fmt.Errorf("trace: histogram bounds differ (%v vs %v)", s.Bounds, o.Bounds)
	}
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: slices.Clone(s.Counts), SumNS: s.SumNS + o.SumNS, Count: s.Count + o.Count}
	for i, c := range o.Counts {
		out.Counts[i] += c
	}
	return out, nil
}

// check reports why s is not a well-formed snapshot, or nil.
func (s HistogramSnapshot) check() error {
	if len(s.Bounds) == 0 {
		return fmt.Errorf("trace: snapshot has no bucket bounds")
	}
	for i := 1; i < len(s.Bounds); i++ {
		if s.Bounds[i] <= s.Bounds[i-1] {
			return fmt.Errorf("trace: snapshot bounds not strictly increasing at %d (%v <= %v)",
				i, s.Bounds[i], s.Bounds[i-1])
		}
	}
	if len(s.Counts) != len(s.Bounds)+1 {
		return fmt.Errorf("trace: snapshot has %d counts for %d bounds (want %d)",
			len(s.Counts), len(s.Bounds), len(s.Bounds)+1)
	}
	return nil
}

// Snapshot copies the histogram state under one lock acquisition.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		SumNS:  h.sum,
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
//
//asalint:unreachable test oracle: the federation tests compare merged and exact-merge quantiles with it
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
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, s.SumNS.Seconds()); err != nil {
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
