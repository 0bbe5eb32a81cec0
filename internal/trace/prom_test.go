package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/accum"
)

// render writes the fold's series under the asamap namespace.
func render(t *testing.T, f *RunFold) string {
	t.Helper()
	c, g := series(f)
	var sb strings.Builder
	if err := WritePrometheus(&sb, "asamap", c, g, nil); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSnapshotDeterministicAndConsistent(t *testing.T) {
	var f RunFold
	f.Add(accum.Stats{Misses: 2, Hits: 1}, []Sweep{
		{Stats: accum.Stats{Misses: 2, Hits: 1}, Imbalance: 1.5, Steals: 7},
		{Imbalance: 2.5},
	})
	out := render(t, &f)
	if again := render(t, &f); again != out {
		t.Fatalf("two renders differ:\n%s\n---\n%s", out, again)
	}
	// Key-sorted: AccumHits < AccumMisses < Level0/..., SweepImbalance < SweepSteals.
	want := `# TYPE asamap_events_total counter
asamap_events_total{event="AccumHits"} 1
asamap_events_total{event="AccumMisses"} 2
asamap_events_total{event="Level0/AccumHits"} 1
asamap_events_total{event="Level0/AccumMisses"} 2
# TYPE asamap_gauge_samples_total counter
asamap_gauge_samples_total{gauge="SweepImbalance"} 2
asamap_gauge_samples_total{gauge="SweepSteals"} 2
# TYPE asamap_gauge_sum counter
asamap_gauge_sum{gauge="SweepImbalance"} 4
asamap_gauge_sum{gauge="SweepSteals"} 7
`
	if out != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", out, want)
	}
}

// TestSnapshotUnderConcurrentRecording: a reader racing runs being folded
// sees each run whole — the total and the per-level events agree, and every
// gauge sum has its samples.
func TestSnapshotUnderConcurrentRecording(t *testing.T) {
	var f RunFold
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
				f.Add(accum.Stats{Hits: 1}, []Sweep{{Stats: accum.Stats{Hits: 1}, Imbalance: 1}})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c, g := series(&f)
			if c[hitsKey] != c[`events_total{event="Level0/AccumHits"}`] {
				t.Errorf("half-folded run: %v", c)
				return
			}
			if g[imbalanceSum] != float64(c[imbalanceN]) {
				t.Errorf("gauge sum %g over %d samples", g[imbalanceSum], c[imbalanceN])
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestWritePrometheus(t *testing.T) {
	var f RunFold
	f.Add(accum.Stats{Hits: 15}, []Sweep{{Steals: 3}})
	out := render(t, &f)
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
	if err := WritePrometheus(&sb, "x", nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("empty series produced output: %q", sb.String())
	}
	if out := render(t, new(RunFold)); out != "" {
		t.Fatalf("empty fold produced output: %q", out)
	}
}
