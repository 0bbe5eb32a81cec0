package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotDeterministicAndConsistent(t *testing.T) {
	b := NewBreakdown()
	b.AddEvents("AccumMisses", 2)
	b.AddEvents("AccumHits", 1)
	b.Observe(GaugeSweepSteals, 7)
	b.Observe(GaugeSweepImbalance, 1.5)
	b.Observe(GaugeSweepImbalance, 2.5)

	s := b.Snapshot()
	if len(s.Events) != 2 || len(s.Gauges) != 2 {
		t.Fatalf("snapshot shape: %d events, %d gauges", len(s.Events), len(s.Gauges))
	}
	// Name-sorted: AccumHits < AccumMisses, SweepImbalance < SweepSteals.
	if s.Events[0].Name != "AccumHits" || s.Events[1].Name != "AccumMisses" {
		t.Fatalf("events not sorted: %v", s.Events)
	}
	if g := s.Gauges[0]; g.Name != GaugeSweepImbalance || g.Sum != 4 || g.Count != 2 {
		t.Fatalf("imbalance gauge: %+v", g)
	}
}

func TestSnapshotUnderConcurrentRecording(t *testing.T) {
	b := NewBreakdown()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.AddEvents("k", 1)
				b.Observe("g", 1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s := b.Snapshot()
			for _, g := range s.Gauges {
				if g.Count == 0 && g.Sum != 0 {
					t.Error("gauge with a sum but zero samples")
					return
				}
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestWritePrometheus(t *testing.T) {
	b := NewBreakdown()
	b.AddEvents("AccumHits", 15)
	b.Observe(GaugeSweepSteals, 3)
	var sb strings.Builder
	if err := b.Snapshot().WritePrometheus(&sb, "asamap"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`asamap_events_total{event="AccumHits"} 15`,
		`asamap_gauge_sum{gauge="SweepSteals"} 3`,
		`asamap_gauge_samples_total{gauge="SweepSteals"} 1`,
		"# TYPE asamap_gauge_sum counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusEmpty(t *testing.T) {
	var sb strings.Builder
	if err := NewBreakdown().Snapshot().WritePrometheus(&sb, "x"); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("empty breakdown produced output: %q", sb.String())
	}
}
