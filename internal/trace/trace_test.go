package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestEmptyBreakdown(t *testing.T) {
	s := NewBreakdown().Snapshot()
	if len(s.Gauges) != 0 || len(s.Events) != 0 {
		t.Fatalf("empty breakdown misbehaves: %+v", s)
	}
}

func TestConcurrentAdd(t *testing.T) {
	b := NewBreakdown()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.AddEvents("k", 1)
			}
		}()
	}
	wg.Wait()
	if s := b.Snapshot(); len(s.Events) != 1 || s.Events[0].Count != 8000 {
		t.Fatalf("concurrent adds lost: %+v", s.Events)
	}
}

func TestObserveAndMean(t *testing.T) {
	b := NewBreakdown()
	b.Observe(GaugeSweepImbalance, 1.0)
	b.Observe(GaugeSweepImbalance, 2.0)
	b.Observe(GaugeSweepSteals, 7)
	s := b.Snapshot()
	if len(s.Gauges) != 2 || s.Gauges[0].Name != GaugeSweepImbalance {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if g := s.Gauges[0]; g.Count != 2 || g.Sum/float64(g.Count) != 1.5 {
		t.Fatalf("imbalance gauge = %+v, want mean 1.5 of 2 samples", g)
	}
	// Gauges never pollute the event counters.
	if len(s.Events) != 0 {
		t.Fatalf("gauges leaked into events: %+v", s.Events)
	}
}

func TestMergeGauges(t *testing.T) {
	a := NewBreakdown()
	a.Observe("g", 1)
	b := NewBreakdown()
	b.Observe("g", 3)
	a.Merge(b)
	if g := a.Snapshot().Gauges[0]; g.Count != 2 || g.Sum != 4 {
		t.Fatalf("merged gauge = %+v, want 2 samples summing to 4", g)
	}
}

func TestConcurrentObserve(t *testing.T) {
	b := NewBreakdown()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Observe("g", 1)
			}
		}()
	}
	wg.Wait()
	if g := b.Snapshot().Gauges[0]; g.Count != 8000 || g.Sum != 8000 {
		t.Fatalf("concurrent observes lost: %+v", g)
	}
}

func TestMergeAndString(t *testing.T) {
	a := NewBreakdown()
	a.AddEvents("x", 1)
	b := NewBreakdown()
	b.AddEvents("x", 1)
	b.AddEvents("y", 2)
	b.Observe("g", 1)
	a.Merge(b)
	s := a.Snapshot()
	if len(s.Events) != 2 || s.Events[0] != (EventSnapshot{"x", 2}) || s.Events[1] != (EventSnapshot{"y", 2}) {
		t.Fatalf("merged events = %+v", s.Events)
	}
	var sb strings.Builder
	if err := s.WritePrometheus(&sb, "ns"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`ns_events_total{event="x"} 2`, `ns_events_total{event="y"} 2`, `ns_gauge_sum{gauge="g"} 1`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("rendered merge missing %q:\n%s", want, sb.String())
		}
	}
}
