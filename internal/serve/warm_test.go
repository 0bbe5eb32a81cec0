package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/rng"
)

// lfrText renders an LFR graph on n vertices (mu 0.3) as an edge list.
func lfrText(tb testing.TB, n int) string {
	tb.Helper()
	g, _, err := gen.LFR(gen.DefaultLFR(n, 0.3), rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// growDelta attaches one new vertex (ID n, the parent's vertex count) to two
// distinct existing vertices drawn from r, so every step both rewires the
// frontier and extends the warm seed with a singleton.
func growDelta(n int, r *rng.RNG) string {
	a := r.Intn(n)
	return fmt.Sprintf("+ %d %d 1\n+ %d %d 1\n", a, n, n, (a+1+r.Intn(n-1))%n)
}

// uploadLineage uploads the LFR graph and a depth-long chain of growDelta
// versions on it, returning the base and the versions in lineage order.
func uploadLineage(tb testing.TB, c testClient, n, depth int) (GraphInfo, []VersionInfo) {
	tb.Helper()
	base := c.upload(lfrText(tb, n))
	r := rng.New(19)
	parent, vertices := base.Hash, base.Vertices
	versions := make([]VersionInfo, 0, depth)
	for i := 0; i < depth; i++ {
		v := c.uploadDelta(parent, growDelta(vertices, r))
		versions = append(versions, v)
		parent, vertices = v.ID, v.Vertices
	}
	return base, versions
}

// warmArgs derives warmDetect's arguments for a warm detect of graph, as
// handleDetect does, plus the request's cache key.
func warmArgs(tb testing.TB, graph string, opts DetectOptions) (opt infomap.Options, fp, key string, hops int) {
	tb.Helper()
	opt, fp, key, err := DetectRequest{Graph: graph, Options: opts}.prepare()
	if err != nil {
		tb.Fatal(err)
	}
	return opt, fp, key, effectiveHops(opts.FrontierHops)
}

// TestWarmReplayDecodesOnce pins the typed lineage walk: a depth-16 warm
// replay decodes only the base entry a cold detect cached as bytes, and an
// all-hit replay of the tip decodes nothing and allocates no per-step seed.
func TestWarmReplayDecodesOnce(t *testing.T) {
	const n, depth = 2000, 16
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	base, versions := uploadLineage(t, c, n, depth)

	c.detect(base.Hash, DetectOptions{Seed: 3})
	warm := DetectOptions{Seed: 3, WarmStart: true}
	var tip detected
	for _, v := range versions {
		res := c.detect(v.ID, warm)
		if res.Cache != CacheMiss {
			t.Fatalf("first warm detect of depth %d: outcome %q, want miss", v.Depth, res.Cache)
		}
		tip = res
	}
	if got := s.MetricsSnapshot().Counters["warm_parent_decodes_total"]; got != 1 {
		t.Fatalf("warm_parent_decodes_total = %d after the lineage, want 1 (the cold base)", got)
	}
	runs := s.Runs()

	if again := c.detect(versions[depth-1].ID, warm); again.Cache != CacheHit || !bytes.Equal(again.Raw, tip.Raw) {
		t.Fatalf("tip replay: outcome %q, bytes equal %v", again.Cache, bytes.Equal(again.Raw, tip.Raw))
	}
	if s.Runs() != runs {
		t.Fatalf("all-hit replay ran %d jobs", s.Runs()-runs)
	}
	if got := s.cache.Stats().ParentDecodes; got != 1 {
		t.Fatalf("all-hit replay decoded: %d decodes, want 1", got)
	}

	// The whole walk, not one step, must stay below one membership's bytes.
	opt, fp, _, hops := warmArgs(t, versions[depth-1].ID, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, outcome, err := s.warmDetect(ctx, versions[depth-1].ID, opt, fp, hops)
	runtime.ReadMemStats(&after)
	if err != nil || outcome != CacheHit || !bytes.Equal(body, tip.Raw) {
		t.Fatalf("direct replay: outcome %q, err %v", outcome, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4*n {
		t.Fatalf("depth-%d all-hit replay allocated %d bytes, want < %d", depth, alloc, 4*n)
	}
}

// TestWarmReplayAdoptedParentAndCoalesced pins the decode fallback: a parent
// step adopted as plain bytes from another server, and parents reached
// through coalesced flights, seed exactly the bytes a serial walk produces.
func TestWarmReplayAdoptedParentAndCoalesced(t *testing.T) {
	const n, depth = 600, 4
	ctx := context.Background()
	warm := DetectOptions{Seed: 11, WarmStart: true}

	// Server A: the serial reference, including a sibling of the tip.
	_, _, ca := newTestServer(t, DefaultConfig())
	_, versions := uploadLineage(t, ca, n, depth)
	parent := versions[depth-2]
	sibDelta := growDelta(parent.Vertices, rng.New(23))
	sibling := ca.uploadDelta(parent.ID, sibDelta)
	tips := []string{versions[depth-1].ID, sibling.ID}
	want := map[string][]byte{}
	for _, id := range append([]string{parent.ID}, tips...) {
		want[id] = ca.detect(id, warm).Raw
	}

	// Server B: the parent step arrives as bytes through the Adopt path.
	sb, _, cb := newTestServer(t, DefaultConfig())
	uploadLineage(t, cb, n, depth)
	_, _, parentKey, _ := warmArgs(t, parent.ID, warm)
	sb.cache.put(parentKey, want[parent.ID])
	if res := cb.detect(tips[0], warm); !bytes.Equal(res.Raw, want[tips[0]]) {
		t.Fatal("child of an adopted parent differs from the serial bytes")
	}
	if st := sb.cache.Stats(); st.ParentDecodes != 1 {
		t.Fatalf("adopted parent decoded %d times, want 1", st.ParentDecodes)
	}
	// The forward walk runs the base and every step but the adopted parent.
	if sb.Runs() != depth {
		t.Fatalf("%d runs, want %d", sb.Runs(), depth)
	}

	// Server C: concurrent warm detects of the tip and its sibling, after
	// a cold detect cached the base as bytes.
	_, _, cc := newTestServer(t, DefaultConfig())
	base, _ := uploadLineage(t, cc, n, depth)
	cc.uploadDelta(parent.ID, sibDelta)
	cc.detect(base.Hash, DetectOptions{Seed: warm.Seed})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			r, err := cc.call(ctx, http.MethodPost, "/v1/detect", DetectRequest{Graph: id, Options: warm})
			if err != nil || r.status != http.StatusOK {
				t.Errorf("warm detect of %s: status %d, %v", id, r.status, err)
				return
			}
			if !bytes.Equal(r.body, want[id]) {
				t.Errorf("concurrent warm detect of %s differs from the serial bytes", id)
			}
		}(tips[i%2])
	}
	wg.Wait()
}

// BenchmarkWarmReplay times one warm detect of a depth-16 lineage tip on an
// LFR graph (n=2000): hit replays a fully cached lineage, tip-miss recomputes
// only a fresh tip on top of a cached depth-15 chain.
func BenchmarkWarmReplay(b *testing.B) {
	const n, depth = 2000, 16
	s := New(DefaultConfig())
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	c := testClient{b, hs}
	ctx := context.Background()
	_, versions := uploadLineage(b, c, n, depth)
	warm := DetectOptions{Seed: 3, WarmStart: true}
	c.detect(versions[depth-1].ID, warm)

	b.Run("hit", func(b *testing.B) {
		tip := versions[depth-1].ID
		opt, fp, _, hops := warmArgs(b, tip, warm)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, outcome, err := s.warmDetect(ctx, tip, opt, fp, hops); err != nil || outcome != CacheHit {
				b.Fatalf("replay: %q %v", outcome, err)
			}
		}
	})
	// Every tip-miss iteration, across all of its runs, is a fresh version:
	// three ops (growDelta makes two) naming a distinct (vertex, weight) pair.
	seq := 0
	b.Run("tip-miss", func(b *testing.B) {
		parent := versions[depth-2]
		nv := parent.Vertices
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k, w := seq%(nv-2), seq/(nv-2)+1
			seq++
			delta := fmt.Sprintf("+ %d %d %d\n+ %d %d 1\n+ %d %d 1\n", k, nv, w, nv, k+1, nv, k+2)
			tip := testClient{b, hs}.uploadDelta(parent.ID, delta)
			opt, fp, _, hops := warmArgs(b, tip.ID, warm)
			b.StartTimer()
			if _, outcome, err := s.warmDetect(ctx, tip.ID, opt, fp, hops); err != nil || outcome != CacheMiss {
				b.Fatalf("tip: %q %v", outcome, err)
			}
		}
	})
}
