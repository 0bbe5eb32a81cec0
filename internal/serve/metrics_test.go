package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs/propagate"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/serve/promtest"
	"github.com/asamap/asamap/internal/trace"
)

// emptySnapshot is a snapshot with nothing in it yet.
func emptySnapshot() MetricsSnapshot {
	return MetricsSnapshot{Counters: map[string]uint64{}, Gauges: map[string]float64{}, Histograms: map[string]trace.HistogramSnapshot{}}
}

// eventKey is the snapshot key of an events_total series.
func eventKey(event string) string { return `events_total{event="` + event + `"}` }

// asaRun runs ASA Infomap on a small SBM graph with 2 workers.
func asaRun(t *testing.T, seed uint64) *infomap.Result {
	t.Helper()
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30, 30}, PIn: 0.4, POut: 0.02}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	opt := infomap.DefaultOptions()
	opt.Kind = infomap.ASA
	opt.Workers = 2
	opt.Seed = seed
	res, err := infomap.Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAccumEventFold: the per-run fold's event counters equal the summed
// per-worker accumulator stats, and the per-level folds sum to the run
// totals — the plumbing /metrics relies on.
func TestAccumEventFold(t *testing.T) {
	res := asaRun(t, 1)
	total := res.TotalStats()
	if total.Accumulates == 0 || total.Hits == 0 {
		t.Fatalf("test graph produced no accumulator traffic: %+v", total)
	}
	var f trace.RunFold
	f.Add(res.TotalStats(), res.SweepLog)
	snap := emptySnapshot()
	f.AddSeries(snap.Counters, snap.Gauges)
	for name, want := range map[string]uint64{
		"AccumAccumulates": total.Accumulates,
		"AccumHits":        total.Hits,
		"AccumMisses":      total.Misses,
		"AccumEvictions":   total.Evictions,
		"AccumOverflowKV":  total.OverflowKV,
		"AccumGatheredKV":  total.GatheredKV,
	} {
		if got := snap.Counters[eventKey(name)]; got != want {
			t.Errorf("event %s = %d, want %d", name, got, want)
		}
	}
	// Per-level CAM folds sum to the run totals for the fields they track.
	var levelHits uint64
	for key, n := range snap.Counters {
		if strings.HasPrefix(key, `events_total{event="Level`) && strings.HasSuffix(key, `/AccumHits"}`) {
			levelHits += n
		}
	}
	if levelHits != total.Hits {
		t.Errorf("per-level AccumHits sum to %d, run total is %d", levelHits, total.Hits)
	}
	// One imbalance and one steal sample per sweep.
	for _, g := range []string{"SweepImbalance", "SweepSteals"} {
		if got := snap.Counters[`gauge_samples_total{gauge="`+g+`"}`]; got != uint64(res.Sweeps) {
			t.Errorf("gauge %s has %d samples, want one per sweep (%d)", g, got, res.Sweeps)
		}
	}
}

// TestRunFoldAddsRuns: folding a second run adds its events and gauge
// samples to the first's; zero-valued events stay out of the snapshot, and
// the writer renders what the fold holds.
func TestRunFoldAddsRuns(t *testing.T) {
	a, b := asaRun(t, 1), asaRun(t, 2)
	var f trace.RunFold
	f.Add(a.TotalStats(), a.SweepLog)
	f.Add(b.TotalStats(), b.SweepLog)
	snap := emptySnapshot()
	f.AddSeries(snap.Counters, snap.Gauges)
	hits := a.TotalStats().Hits + b.TotalStats().Hits
	if got := snap.Counters[eventKey("AccumHits")]; got != hits {
		t.Errorf("AccumHits = %d, want %d", got, hits)
	}
	for key, v := range snap.Counters {
		if v == 0 {
			t.Errorf("zero-valued series %s in the snapshot", key)
		}
	}
	var imbalance float64
	for _, sw := range slices.Concat(a.SweepLog, b.SweepLog) {
		imbalance += sw.Imbalance
	}
	samples := snap.Counters[`gauge_samples_total{gauge="SweepImbalance"}`]
	if samples != uint64(a.Sweeps+b.Sweeps) {
		t.Errorf("SweepImbalance has %d samples, want %d", samples, a.Sweeps+b.Sweeps)
	}
	if sum := snap.Gauges[`gauge_sum{gauge="SweepImbalance"}`]; math.Abs(sum-imbalance) > 1e-9*imbalance {
		t.Errorf("SweepImbalance sum = %g, want %g", sum, imbalance)
	}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`asamap_events_total{event="AccumHits"} %d`, hits),
		fmt.Sprintf(`asamap_gauge_samples_total{gauge="SweepSteals"} %d`, a.Sweeps+b.Sweeps),
		"# TYPE asamap_gauge_sum counter",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered fold missing %q:\n%s", want, sb.String())
		}
	}
}

// TestMetricsSnapshotHistogramWire pins the bytes a histogram ships in on
// /metrics/snapshot: integer nanoseconds under bounds_ns and sum_ns, so
// federation merges stay exact; decoding them gives back the same snapshot.
func TestMetricsSnapshotHistogramWire(t *testing.T) {
	h := trace.NewHistogram([]time.Duration{time.Millisecond, time.Second})
	for _, d := range []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 3 * time.Second} {
		h.Observe(d)
	}
	snap := MetricsSnapshot{Histograms: map[string]trace.HistogramSnapshot{"request_seconds": h.Snapshot()}}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"counters":null,"gauges":null,"histograms":{"request_seconds":` +
		`{"bounds_ns":[1000000,1000000000],"counts":[1,1,1],"sum_ns":3002500000,"count":3}}}`
	if string(raw) != want {
		t.Fatalf("wire bytes\n%s\nwant\n%s", raw, want)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); string(again) != want {
		t.Fatalf("decoded snapshot re-encodes as\n%s", again)
	}
}

// TestMetricsWritePrometheus pins the writer's bytes: keys in order (so
// x_open_total{...} before x_open{...}), one # TYPE per family, _total and _sum families typed as counters and the
// rest as gauges, counters as integers, gauges as the shortest decimal, and
// histograms through the histogram writer.
func TestMetricsWritePrometheus(t *testing.T) {
	h := trace.NewHistogram([]time.Duration{time.Millisecond})
	h.Observe(2 * time.Millisecond)
	snap := MetricsSnapshot{
		Counters: map[string]uint64{
			"runs_total":             3,
			eventKey("AccumMisses"):  2,
			eventKey("AccumHits"):    1,
			`x_total{peer="0"}`:      4,
			`x_open_total{peer="0"}`: 5,
		},
		Gauges: map[string]float64{
			"queue_capacity":                          16,
			`gauge_sum{gauge="SweepImbalance"}`:       2.5,
			`kernel_seconds_total{kernel="PageRank"}`: 1.5e-05,
			`x_open{peer="0"}`:                        1,
		},
		Histograms: map[string]trace.HistogramSnapshot{"request_seconds": h.Snapshot()},
	}
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE asamap_events_total counter
asamap_events_total{event="AccumHits"} 1
asamap_events_total{event="AccumMisses"} 2
# TYPE asamap_gauge_sum counter
asamap_gauge_sum{gauge="SweepImbalance"} 2.5
# TYPE asamap_kernel_seconds_total counter
asamap_kernel_seconds_total{kernel="PageRank"} 0.000015
# TYPE asamap_queue_capacity gauge
asamap_queue_capacity 16
# TYPE asamap_request_seconds histogram
asamap_request_seconds_bucket{le="0.001"} 0
asamap_request_seconds_bucket{le="+Inf"} 1
asamap_request_seconds_sum 0.002
asamap_request_seconds_count 1
# TYPE asamap_runs_total counter
asamap_runs_total 3
# TYPE asamap_x_open_total counter
asamap_x_open_total{peer="0"} 5
# TYPE asamap_x_open gauge
asamap_x_open{peer="0"} 1
# TYPE asamap_x_total counter
asamap_x_total{peer="0"} 4
`
	if sb.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", sb.String(), want)
	}
	if _, err := promtest.Parse(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// fetchMetrics scrapes /metrics, checks its shape, and returns its families.
func fetchMetrics(t *testing.T, c testClient) []promtest.Family {
	t.Helper()
	raw := c.must(http.MethodGet, "/metrics", nil, nil).body
	fams, err := promtest.Parse(string(raw))
	if err != nil {
		t.Fatalf("/metrics: %v\n%s", err, raw)
	}
	return fams
}

// exposedSeries lists the series of an exposition the way a snapshot keys
// them: without the asamap_ prefix, a histogram by its family name.
func exposedSeries(fams []promtest.Family) []string {
	var out []string
	for _, f := range fams {
		if f.Type == "histogram" {
			out = append(out, strings.TrimPrefix(f.Name, "asamap_"))
			continue
		}
		for _, s := range f.Samples {
			out = append(out, strings.TrimPrefix(s.Series, "asamap_"))
		}
	}
	return out
}

// TestMetricsMatchSnapshot: /metrics renders the snapshot, so after an ASA
// detect, /metrics and /metrics/snapshot taken back to back list the same
// series — kernel seconds, accumulator events and sweep gauges included.
func TestMetricsMatchSnapshot(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	c.detect(c.upload(twoTriangles).Hash, DetectOptions{Accum: "asa", Seed: 3})
	exposed := exposedSeries(fetchMetrics(t, c))
	var snap MetricsSnapshot
	c.must(http.MethodGet, "/metrics/snapshot", nil, &snap)
	keys := slices.Concat(graph.SortedKeys(snap.Counters), graph.SortedKeys(snap.Gauges), graph.SortedKeys(snap.Histograms))
	slices.Sort(keys)
	if !slices.Equal(exposed, keys) {
		t.Errorf("/metrics series:\n%v\n/metrics/snapshot keys:\n%v", exposed, keys)
	}
	for _, want := range []string{
		`kernel_seconds_total{kernel="FindBestCommunity"}`,
		eventKey("AccumHits"),
		`gauge_sum{gauge="SweepImbalance"}`,
	} {
		if !slices.Contains(keys, want) {
			t.Errorf("snapshot lacks %s", want)
		}
	}
}

// TestMetricsConcurrentDetects: eight detects run at once while /metrics is
// scraped; every scrape is well-formed and sorted, and once they finish no
// event of any run is missing from the totals.
func TestMetricsConcurrentDetects(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	info := c.upload(twoTriangles)
	const detects = 8
	replies := make([]reply, detects)
	errs := make([]error, detects)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := DetectRequest{Graph: info.Hash, Options: DetectOptions{Accum: "asa", Seed: uint64(i + 1)}}
			replies[i], errs[i] = c.call(context.Background(), http.MethodPost, "/v1/detect", req)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		series := exposedSeries(fetchMetrics(t, c))
		for i := 1; i < len(series); i++ {
			if series[i-1] >= series[i] {
				t.Fatalf("/metrics lists %s after %s", series[i], series[i-1])
			}
		}
	}
	var hits, misses uint64
	var sweeps int
	for i, rep := range replies {
		var r DetectResponse
		if errs[i] != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &r) != nil {
			t.Fatalf("detect %d: status %d, %v", i, rep.status, errs[i])
		}
		hits += r.Accum.Hits
		misses += r.Accum.Misses
		sweeps += r.Sweeps
	}
	snap := s.MetricsSnapshot()
	if got := snap.Counters["runs_total"]; got != detects {
		t.Fatalf("runs_total = %d, want %d", got, detects)
	}
	for key, want := range map[string]uint64{
		eventKey("AccumHits"):                      hits,
		eventKey("AccumMisses"):                    misses,
		`gauge_samples_total{gauge="SweepSteals"}`: uint64(sweeps),
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
}

// TestGCPauseFold: each scrape observes exactly the GC pauses of the cycles
// completed since the previous one — cycle i sits at PauseNs[i%256] — and no
// more than the 256 the ring keeps.
func TestGCPauseFold(t *testing.T) {
	rt := newRuntimeStats()
	var ms runtime.MemStats
	check := func(count uint64, sum time.Duration) {
		t.Helper()
		s := rt.pauseHist.Snapshot()
		if s.Count != count || s.SumNS != sum {
			t.Fatalf("pause histogram count %d sum %v, want %d and %v", s.Count, s.SumNS, count, sum)
		}
	}
	ms.NumGC = 2
	ms.PauseNs[0], ms.PauseNs[1] = 100_000, 200_000
	rt.observePauses(&ms)
	check(2, 300*time.Microsecond)
	rt.observePauses(&ms) // nothing new
	check(2, 300*time.Microsecond)
	ms.NumGC = 3
	ms.PauseNs[2] = 400_000
	rt.observePauses(&ms)
	check(3, 700*time.Microsecond)
	for i := range ms.PauseNs {
		ms.PauseNs[i] = 1_000
	}
	ms.NumGC = 3 + 1000
	rt.observePauses(&ms)
	check(3+256, 700*time.Microsecond+256*time.Microsecond)
}

// stepClock advances a fixed step on every read, so spans get nonzero
// durations that are exact multiples of the step.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *stepClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// kernelSeries parses the asamap_kernel_* series of a /metrics body into
// per-kernel seconds and invocation counts.
func kernelSeries(t *testing.T, body string) (seconds map[string]float64, calls map[string]uint64) {
	t.Helper()
	seconds, calls = map[string]float64{}, map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		for _, prefix := range []string{"asamap_kernel_seconds_total{kernel=", "asamap_kernel_invocations_total{kernel="} {
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			label, value, _ := strings.Cut(rest, "} ")
			kernel, err := strconv.Unquote(label)
			if err != nil {
				t.Fatalf("bad kernel label in %q: %v", line, err)
			}
			if strings.Contains(prefix, "seconds") {
				seconds[kernel], err = strconv.ParseFloat(value, 64)
			} else {
				calls[kernel], err = strconv.ParseUint(value, 10, 64)
			}
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
		}
	}
	return seconds, calls
}

// TestKernelMetricsEqualRequestSpans: each asamap_kernel_* series is the sum
// and count of that kernel's spans. With the default ring the spans are read
// back from /debug/trace/{id}; with a ring of one span they are long evicted,
// yet every invocation still counts.
func TestKernelMetricsEqualRequestSpans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ring  int
		seeds []uint64
	}{
		{"default ring", 0, []uint64{1}},
		{"ring of one", -1, []uint64{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Clock = &stepClock{now: time.Unix(0, 0), step: time.Millisecond}
			cfg.TraceRing = tc.ring
			_, _, c := newTestServer(t, cfg)
			info := c.upload(twoTriangles)
			wantCalls := map[string]uint64{}
			var traceID string
			for _, seed := range tc.seeds {
				var dr DetectResponse
				r := c.must(http.MethodPost, "/v1/detect", DetectRequest{Graph: info.Hash, Options: DetectOptions{Seed: seed}}, &dr)
				traceID = r.header.Get(propagate.ResponseHeader)
				wantCalls[trace.KernelPageRank]++
				wantCalls[trace.KernelConvert2SuperNode] += uint64(dr.Levels)
				wantCalls[trace.KernelFindBestCommunity] += uint64(dr.Sweeps)
				wantCalls[trace.KernelUpdateMembers] += uint64(dr.Sweeps)
			}

			seconds, calls := kernelSeries(t, string(c.must(http.MethodGet, "/metrics", nil, nil).body))
			for _, k := range trace.Kernels() {
				if calls[k] != wantCalls[k] {
					t.Errorf("%s invocations = %d, want %d", k, calls[k], wantCalls[k])
				}
				if seconds[k] <= 0 {
					t.Errorf("%s seconds = %g, want > 0", k, seconds[k])
				}
			}
			if tc.ring != 0 {
				return
			}

			var payload struct {
				Spans []SpanPayload `json:"spans"`
			}
			c.must(http.MethodGet, "/debug/trace/"+traceID, nil, &payload)
			spanUS, spanCalls := map[string]int64{}, map[string]uint64{}
			for _, sp := range payload.Spans {
				spanUS[sp.Name] += sp.DurUS
				spanCalls[sp.Name]++
			}
			for _, k := range trace.Kernels() {
				if calls[k] != spanCalls[k] {
					t.Errorf("%s invocations = %d, trace has %d spans", k, calls[k], spanCalls[k])
				}
				// Whole-millisecond steps make both sides exact in integer
				// microseconds.
				if got := int64(math.Round(seconds[k] * 1e6)); got != spanUS[k] {
					t.Errorf("%s seconds = %dµs, trace spans sum to %dµs", k, got, spanUS[k])
				}
			}
		})
	}
}
