package trace

import (
	"strings"
	"sync"
	"testing"

	"github.com/asamap/asamap/internal/accum"
)

// series returns the fold's counters and gauges.
func series(f *RunFold) (map[string]uint64, map[string]float64) {
	counters, gauges := map[string]uint64{}, map[string]float64{}
	f.AddSeries(counters, gauges)
	return counters, gauges
}

const (
	hitsKey       = `events_total{event="AccumHits"}`
	missesKey     = `events_total{event="AccumMisses"}`
	imbalanceSum  = `gauge_sum{gauge="SweepImbalance"}`
	imbalanceN    = `gauge_samples_total{gauge="SweepImbalance"}`
	stealsSum     = `gauge_sum{gauge="SweepSteals"}`
	stealsSamples = `gauge_samples_total{gauge="SweepSteals"}`
)

func TestEmptyBreakdown(t *testing.T) {
	var f RunFold
	if c, g := series(&f); len(c) != 0 || len(g) != 0 {
		t.Fatalf("empty fold misbehaves: %v %v", c, g)
	}
}

// TestBreakdownEvents: events accumulate across runs, per level as well as
// in total, and zero-valued events stay out of the series.
func TestBreakdownEvents(t *testing.T) {
	var f RunFold
	f.Add(accum.Stats{Hits: 3, Misses: 1}, []Sweep{{Level: 0, Stats: accum.Stats{Hits: 2}}, {Level: 1, Stats: accum.Stats{Hits: 1, Misses: 1}}})
	f.Add(accum.Stats{Hits: 4}, []Sweep{{Level: 1, Stats: accum.Stats{Hits: 4}}})
	c, _ := series(&f)
	for key, want := range map[string]uint64{
		hitsKey:                                    7,
		missesKey:                                  1,
		`events_total{event="Level0/AccumHits"}`:   2,
		`events_total{event="Level1/AccumHits"}`:   5,
		`events_total{event="Level1/AccumMisses"}`: 1,
	} {
		if got := c[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	for key, v := range c {
		if v == 0 {
			t.Errorf("zero-valued series %s", key)
		}
	}
	if _, ok := c[`events_total{event="Level0/AccumMisses"}`]; ok {
		t.Error("zero per-level event exported")
	}
}

func TestConcurrentAdd(t *testing.T) {
	var f RunFold
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				f.Add(accum.Stats{Hits: 1}, nil)
			}
		}()
	}
	wg.Wait()
	if c, _ := series(&f); len(c) != 1 || c[hitsKey] != 8000 {
		t.Fatalf("concurrent adds lost: %v", c)
	}
}

func TestObserveAndMean(t *testing.T) {
	var f RunFold
	f.Add(accum.Stats{}, []Sweep{{Imbalance: 1.0}, {Imbalance: 2.0, Steals: 7}})
	c, g := series(&f)
	if n := c[imbalanceN]; n != 2 || g[imbalanceSum]/float64(n) != 1.5 {
		t.Fatalf("imbalance gauge = %g over %d samples, want mean 1.5 of 2", g[imbalanceSum], n)
	}
	if g[stealsSum] != 7 || c[stealsSamples] != 2 {
		t.Fatalf("steals gauge = %g over %d samples, want 7 over 2", g[stealsSum], c[stealsSamples])
	}
	// Gauges never pollute the event counters.
	for key := range c {
		if strings.HasPrefix(key, "events_total") {
			t.Fatalf("gauges leaked into events: %v", c)
		}
	}
}

func TestMergeGauges(t *testing.T) {
	var f RunFold
	f.Add(accum.Stats{}, []Sweep{{Imbalance: 1}})
	f.Add(accum.Stats{}, []Sweep{{Imbalance: 3}})
	if c, g := series(&f); c[imbalanceN] != 2 || g[imbalanceSum] != 4 {
		t.Fatalf("folded gauge = %g over %d samples, want 2 samples summing to 4", g[imbalanceSum], c[imbalanceN])
	}
}

func TestConcurrentObserve(t *testing.T) {
	var f RunFold
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				f.Add(accum.Stats{}, []Sweep{{Imbalance: 1}})
			}
		}()
	}
	wg.Wait()
	if c, g := series(&f); c[imbalanceN] != 8000 || g[imbalanceSum] != 8000 {
		t.Fatalf("concurrent observes lost: %g over %d samples", g[imbalanceSum], c[imbalanceN])
	}
}

// TestMergeAndString: two runs' events sum, and the sum renders.
func TestMergeAndString(t *testing.T) {
	var f RunFold
	f.Add(accum.Stats{Hits: 1}, nil)
	f.Add(accum.Stats{Hits: 1, Misses: 2}, []Sweep{{Imbalance: 1}})
	c, g := series(&f)
	if len(c) != 4 || c[hitsKey] != 2 || c[missesKey] != 2 {
		t.Fatalf("folded events = %v", c)
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, "ns", c, g, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`ns_events_total{event="AccumHits"} 2`, `ns_events_total{event="AccumMisses"} 2`, `ns_gauge_sum{gauge="SweepImbalance"} 1`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("rendered fold missing %q:\n%s", want, sb.String())
		}
	}
}
