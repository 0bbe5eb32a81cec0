package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantiles pins the quantile semantics on known observations:
// the reported value is the upper bound of the bucket holding the ceil-rank
// observation.
func TestHistogramQuantiles(t *testing.T) {
	bounds := []time.Duration{
		1 * time.Millisecond,
		10 * time.Millisecond,
		100 * time.Millisecond,
	}
	h := NewHistogram(bounds)
	// 8 obs <=1ms, 1 obs in (1ms,10ms], 1 obs in (10ms,100ms].
	for i := 0; i < 8; i++ {
		h.Observe(500 * time.Microsecond)
	}
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)

	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
	if got := s.Quantile(0.50); got != 1*time.Millisecond {
		t.Errorf("p50 = %v, want 1ms", got)
	}
	if got := s.Quantile(0.90); got != 10*time.Millisecond {
		t.Errorf("p90 = %v, want 10ms", got)
	}
	if got := s.Quantile(0.99); got != 100*time.Millisecond {
		t.Errorf("p99 = %v, want 100ms", got)
	}
	if got := s.Quantile(1.0); got != 100*time.Millisecond {
		t.Errorf("q1.0 = %v, want 100ms", got)
	}
	// Exact bucket-edge observation lands in its own bucket (d <= bound).
	edge := NewHistogram(bounds)
	edge.Observe(1 * time.Millisecond)
	if got := edge.Snapshot().Counts[0]; got != 1 {
		t.Errorf("edge observation missed bucket 0: counts=%v", edge.Snapshot().Counts)
	}
}

// TestHistogramOverflowAndEmpty: overflow observations report the largest
// finite bound; an empty histogram reports 0.
func TestHistogramOverflowAndEmpty(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
	h.Observe(5 * time.Second) // overflow bucket
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket not hit: %v", s.Counts)
	}
	if got := s.Quantile(0.50); got != time.Second {
		t.Errorf("overflow p50 = %v, want largest finite bound 1s", got)
	}
	// Negative durations clamp to zero (first bucket).
	h.Observe(-time.Second)
	if got := h.Snapshot().Counts[0]; got != 1 {
		t.Errorf("negative observation did not clamp into bucket 0")
	}
}

// TestHistogramMergeDeterminism: merging snapshots in either order, or
// observing everything directly into one histogram, yields byte-identical
// snapshots — the fixed-bucket exactness the serving layer's aggregation
// relies on.
func TestHistogramMergeDeterminism(t *testing.T) {
	obsA := []time.Duration{200 * time.Microsecond, 3 * time.Millisecond, 70 * time.Second}
	obsB := []time.Duration{800 * time.Microsecond, 40 * time.Millisecond, 40 * time.Millisecond}

	fill := func(ds []time.Duration) HistogramSnapshot {
		h := NewLatencyHistogram()
		for _, d := range ds {
			h.Observe(d)
		}
		return h.Snapshot()
	}
	render := func(parts ...HistogramSnapshot) string {
		var s HistogramSnapshot
		for _, p := range parts {
			var err error
			if s, err = s.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := s.WritePrometheus(&buf, "t_seconds"); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ab, ba := render(fill(obsA), fill(obsB)), render(fill(obsB), fill(obsA))
	direct := render(fill(append(append([]time.Duration{}, obsA...), obsB...)))
	if ab != ba || ab != direct {
		t.Errorf("merge order changed the histogram:\nA+B:\n%s\nB+A:\n%s\ndirect:\n%s", ab, ba, direct)
	}
}

// TestHistogramMergeMismatch: merging across different bucket ladders, or a
// malformed snapshot, is an error, not a silent approximation or a panic.
func TestHistogramMergeMismatch(t *testing.T) {
	a := NewHistogram([]time.Duration{time.Millisecond}).Snapshot()
	for name, o := range map[string]HistogramSnapshot{
		"bucket count": NewHistogram([]time.Duration{time.Millisecond, time.Second}).Snapshot(),
		"bound value":  NewHistogram([]time.Duration{2 * time.Millisecond}).Snapshot(),
		"no bounds":    {Counts: []uint64{1}, Count: 1},
		"unsorted":     {Bounds: []time.Duration{time.Second, time.Millisecond}, Counts: []uint64{1, 0, 0}, Count: 1},
		"counts":       {Bounds: []time.Duration{time.Millisecond}, Counts: []uint64{6}, Count: 6},
	} {
		if _, err := a.Merge(o); err == nil {
			t.Errorf("%s mismatch not rejected", name)
		}
		if _, err := o.Merge(a); err == nil {
			t.Errorf("%s mismatch not rejected as the receiver", name)
		}
	}
}

// TestHistogramConcurrentObserve: concurrent observers never lose samples
// (and under -race, never race).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 250
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g+1) * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*per {
		t.Errorf("count = %d, want %d", got, goroutines*per)
	}
}

// TestHistogramPrometheus pins the exposition format: cumulative le buckets in
// seconds, +Inf, _sum, _count.
func TestHistogramPrometheus(t *testing.T) {
	h := NewHistogram([]time.Duration{5 * time.Millisecond, 2500 * time.Millisecond})
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	h.Observe(time.Minute)
	var buf bytes.Buffer
	if err := h.Snapshot().WritePrometheus(&buf, "x_seconds"); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{le="0.005"} 1`,
		`x_seconds_bucket{le="2.5"} 2`,
		`x_seconds_bucket{le="+Inf"} 3`,
		"x_seconds_sum 61.001",
		"x_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
}

// TestNewHistogramPanics: construction rejects empty and unsorted bounds.
func TestNewHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]time.Duration{
		"empty":    nil,
		"unsorted": {time.Second, time.Millisecond},
		"dup":      {time.Second, time.Second},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}
