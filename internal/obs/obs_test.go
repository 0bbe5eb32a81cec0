package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/clock"
)

func fakeClock() *clock.Fake {
	return clock.NewFake(time.Unix(1000, 0))
}

// buildRun simulates one run's span structure: a root with two levels, each
// level with sweeps and kernel children, plus schedule-dependent keyed worker
// spans whose count varies with the simulated worker count.
func buildRun(t *Tracer, workers int) {
	run := t.Begin("run")
	run.SetAttr("seed", "1")
	run.SetVolatileUint("workers", uint64(workers))
	for level := 0; level < 2; level++ {
		lv := run.Child("level")
		lv.SetUint("level", uint64(level))
		for sweep := 0; sweep < 2; sweep++ {
			sw := lv.Child("sweep")
			sw.SetUint("sweep", uint64(sweep))
			sw.SetUint("cam_hits", 42)
			fbc := sw.Child("FindBestCommunity")
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ws := fbc.ChildKeyed("worker", uint64(w))
					ws.SetVolatileUint("steals", uint64(w))
					ws.End()
				}(w)
			}
			wg.Wait()
			fbc.End()
			um := sw.Child("UpdateMembers")
			um.End()
			sw.End()
		}
		lv.End()
	}
	run.End()
}

// TestDeterministicIDs: same seed + same structure => identical span IDs,
// regardless of the tracer instance.
func TestDeterministicIDs(t *testing.T) {
	a := New(Config{Clock: fakeClock(), Seed: 7})
	b := New(Config{Clock: fakeClock(), Seed: 7})
	buildRun(a, 1)
	buildRun(b, 1)
	sa, sb := a.Snapshot(0), b.Snapshot(0)
	if len(sa) == 0 || len(sa) != len(sb) {
		t.Fatalf("snapshot sizes %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].ID != sb[i].ID || sa[i].Parent != sb[i].Parent || sa[i].Name != sb[i].Name {
			t.Fatalf("span %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	c := New(Config{Clock: fakeClock(), Seed: 8})
	buildRun(c, 1)
	if c.Snapshot(0)[0].ID == sa[0].ID {
		t.Error("different seeds produced the same span ID")
	}
}

// TestCanonicalTreeWorkerInvariance: the canonical tree excludes volatile
// spans and attributes, so simulated 1-worker and 4-worker runs produce
// byte-identical canonical JSON.
func TestCanonicalTreeWorkerInvariance(t *testing.T) {
	one := New(Config{Clock: fakeClock(), Seed: 1})
	four := New(Config{Clock: fakeClock(), Seed: 1})
	buildRun(one, 1)
	buildRun(four, 4)
	j1, err := one.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j4, err := four.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Errorf("canonical trees differ across worker counts:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", j1, j4)
	}
	// The tree must still contain the deterministic structure.
	var roots []*TreeNode
	if err := json.Unmarshal(j1, &roots); err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Name != "run" {
		t.Fatalf("want a single 'run' root, got %v", roots)
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("want 2 level children, got %d", len(roots[0].Children))
	}
	sweep := roots[0].Children[0].Children[0]
	if sweep.Name != "sweep" || len(sweep.Children) != 2 {
		t.Fatalf("sweep structure wrong: %+v", sweep)
	}
	if sweep.Children[0].Name != "FindBestCommunity" || sweep.Children[1].Name != "UpdateMembers" {
		t.Fatalf("kernel children wrong: %s, %s", sweep.Children[0].Name, sweep.Children[1].Name)
	}
	if len(sweep.Children[0].Children) != 0 {
		t.Error("volatile worker spans leaked into the canonical tree")
	}
	for _, a := range roots[0].Attrs {
		if a.Key == "workers" {
			t.Error("volatile attr 'workers' leaked into the canonical tree")
		}
	}
}

// TestConcurrentSpans hammers Begin/Child/ChildKeyed/SetAttr/End from many
// goroutines; run under -race this is the tracer's thread-safety proof.
func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{Seed: 3, RingSize: 64})
	root := tr.Begin("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := root.ChildKeyed("worker", uint64(i))
				s.SetVolatileUint("iter", uint64(j))
				s.SetTrack(i + 1)
				c := tr.Begin("aux")
				c.SetAttr("k", "v")
				c.End()
				s.End()
				_ = tr.Snapshot(8)
				_ = tr.Len()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if got := tr.Len(); got != 64 {
		t.Errorf("ring should cap retained spans at 64, got %d", got)
	}
	totals := tr.Totals()
	if totals["aux"].Count != 16*50 || totals["worker"].Count != 16*50 || totals["root"].Count != 1 {
		t.Errorf("totals lost concurrently ended spans: %+v", totals)
	}
}

// TestTracerTotals: per-name totals sum every ended span's duration and
// count, exactly, however few spans the ring retains.
func TestTracerTotals(t *testing.T) {
	clk := fakeClock()
	tr := New(Config{Clock: clk, Seed: 1, RingSize: 1})
	for _, d := range []time.Duration{100 * time.Millisecond, 50 * time.Millisecond} {
		s := tr.Begin("PageRank")
		clk.Advance(d)
		s.End()
		s.End() // a second End must not count twice
	}
	s := tr.Begin("FindBestCommunity")
	clk.Advance(300 * time.Millisecond)
	s.End()
	tr.Begin("open") // never ended: never counted

	want := map[string]SpanTotal{
		"PageRank":          {Duration: 150 * time.Millisecond, Count: 2},
		"FindBestCommunity": {Duration: 300 * time.Millisecond, Count: 1},
	}
	got := tr.Totals()
	if len(got) != len(want) {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("Totals[%s] = %+v, want %+v", name, got[name], w)
		}
	}
	if spans, _ := tr.Dropped(); spans != 2 {
		t.Errorf("ring of 1 should have evicted 2 spans, evicted %d", spans)
	}
	var nilTracer *Tracer
	if nilTracer.Totals() != nil {
		t.Error("nil tracer has totals")
	}
}

// TestRingEviction: only the most recent RingSize spans survive, in End
// order.
func TestRingEviction(t *testing.T) {
	tr := New(Config{Clock: fakeClock(), Seed: 1, RingSize: 3})
	for i := 0; i < 10; i++ {
		s := tr.Begin("s")
		s.SetUint("i", uint64(i))
		s.End()
	}
	got := tr.Snapshot(0)
	if len(got) != 3 {
		t.Fatalf("want 3 retained spans, got %d", len(got))
	}
	for i, s := range got {
		if want := strconv.FormatUint(uint64(7+i), 10); s.Attrs[0].Value != want {
			t.Errorf("span %d: want i=%s, got %s", i, want, s.Attrs[0].Value)
		}
	}
	if n := tr.Snapshot(2); len(n) != 2 {
		t.Errorf("Snapshot(2) returned %d spans", len(n))
	}
}

// TestNilSafety: a nil tracer and nil spans absorb every call.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Begin("x")
	s.SetAttr("a", "b")
	s.SetUint("c", 1)
	s.SetFloat("d", 1.5)
	s.SetVolatileAttr("e", "f")
	s.SetVolatileUint("g", 2)
	s.SetVolatileFloat("h", 2.5)
	s.SetTrack(1)
	c := s.Child("y")
	k := s.ChildKeyed("z", 1)
	c.End()
	k.End()
	s.End()
	if tr.Len() != 0 || tr.Snapshot(0) != nil || tr.CanonicalTree() != nil {
		t.Error("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer Chrome trace is not valid JSON: %v", err)
	}
}

// TestEndIdempotent: double End commits the span once and attr writes after
// End are dropped.
func TestEndIdempotent(t *testing.T) {
	tr := New(Config{Clock: fakeClock(), Seed: 1})
	s := tr.Begin("once")
	s.End()
	s.SetAttr("late", "ignored")
	s.End()
	if tr.Len() != 1 {
		t.Fatalf("want 1 committed span, got %d", tr.Len())
	}
	if attrs := tr.Snapshot(0)[0].Attrs; len(attrs) != 0 {
		t.Errorf("attr set after End leaked: %v", attrs)
	}
}
