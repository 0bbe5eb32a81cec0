package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/obs/propagate"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/trace"
)

// TestAccumEventFold: the per-run fold's event counters equal the summed
// per-worker accumulator stats, and the per-level folds sum to the run
// totals — the plumbing /metrics relies on.
func TestAccumEventFold(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30, 30}, PIn: 0.4, POut: 0.02}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	opt := infomap.DefaultOptions()
	opt.Kind = infomap.ASA
	opt.Workers = 2
	res, err := infomap.Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	total := res.TotalStats()
	if total.Accumulates == 0 || total.Hits == 0 {
		t.Fatalf("test graph produced no accumulator traffic: %+v", total)
	}
	events := map[string]uint64{}
	snap := runEvents(res).Snapshot()
	for _, e := range snap.Events {
		events[e.Name] = e.Count
	}
	for name, want := range map[string]uint64{
		"AccumAccumulates": total.Accumulates,
		"AccumHits":        total.Hits,
		"AccumMisses":      total.Misses,
		"AccumEvictions":   total.Evictions,
		"AccumOverflowKV":  total.OverflowKV,
		"AccumGatheredKV":  total.GatheredKV,
	} {
		if got := events[name]; got != want {
			t.Errorf("event %s = %d, want %d", name, got, want)
		}
	}
	// Per-level CAM folds sum to the run totals for the fields they track.
	var levelHits uint64
	for name, n := range events {
		if strings.HasPrefix(name, "Level") && strings.HasSuffix(name, "/AccumHits") {
			levelHits += n
		}
	}
	if levelHits != total.Hits {
		t.Errorf("per-level AccumHits sum to %d, run total is %d", levelHits, total.Hits)
	}
	// One imbalance and one steal sample per sweep.
	for _, gs := range snap.Gauges {
		if gs.Count != uint64(res.Sweeps) {
			t.Errorf("gauge %s has %d samples, want one per sweep (%d)", gs.Name, gs.Count, res.Sweeps)
		}
	}
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
			_, hs, c := newTestServer(t, cfg)
			info, err := c.UploadGraph(context.Background(), strings.NewReader(twoTriangles), false)
			if err != nil {
				t.Fatal(err)
			}
			wantCalls := map[string]uint64{}
			var traceID string
			for _, seed := range tc.seeds {
				resp, err := hs.Client().Post(hs.URL+"/v1/detect", "application/json",
					strings.NewReader(`{"graph":"`+info.Hash+`","options":{"seed":`+strconv.FormatUint(seed, 10)+`}}`))
				if err != nil {
					t.Fatal(err)
				}
				var dr DetectResponse
				err = json.NewDecoder(resp.Body).Decode(&dr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("detect seed %d: status %d, %v", seed, resp.StatusCode, err)
				}
				traceID = resp.Header.Get(propagate.ResponseHeader)
				wantCalls[trace.KernelPageRank]++
				wantCalls[trace.KernelConvert2SuperNode] += uint64(dr.Levels)
				wantCalls[trace.KernelFindBestCommunity] += uint64(dr.Sweeps)
				wantCalls[trace.KernelUpdateMembers] += uint64(dr.Sweeps)
			}

			resp, err := hs.Client().Get(hs.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			seconds, calls := kernelSeries(t, string(raw))
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

			resp, err = hs.Client().Get(hs.URL + "/debug/trace/" + traceID)
			if err != nil {
				t.Fatal(err)
			}
			var payload struct {
				Spans []SpanPayload `json:"spans"`
			}
			err = json.NewDecoder(resp.Body).Decode(&payload)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
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
