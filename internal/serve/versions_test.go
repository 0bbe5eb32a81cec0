package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// triangleDelta rewires twoTriangles: drops the bridge, adds a new bridge
// through a brand-new vertex 6, and reweights one triangle edge.
const triangleDelta = "# rewire the bridge through a new vertex\n- 0 3\n+ 0 6 1\n+ 6 3 1\n= 1 2 2\n"

// secondDelta stacks on triangleDelta's version: strengthen the new bridge.
const secondDelta = "= 0 6 3\n"

func uploadBaseAndDelta(t *testing.T, c *Client) (GraphInfo, VersionInfo) {
	t.Helper()
	ctx := context.Background()
	base, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := c.UploadDelta(ctx, base.Hash, strings.NewReader(triangleDelta))
	if err != nil {
		t.Fatal(err)
	}
	return base, v1
}

func TestDeltaUploadLineage(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	base, v1 := uploadBaseAndDelta(t, c)

	if len(v1.ID) != 64 || v1.ID == base.Hash {
		t.Fatalf("version id %q is not a fresh sha256 digest", v1.ID)
	}
	if v1.Parent != base.Hash || v1.Base != base.Hash || v1.Depth != 1 || v1.Ops != 4 {
		t.Fatalf("v1 lineage: %+v", v1)
	}
	// twoTriangles has 6 vertices, 7 edges; the delta removes one edge, adds
	// two through new vertex 6, and reweights one in place.
	if v1.Vertices != 7 || v1.Edges != 8 || v1.Directed {
		t.Fatalf("v1 shape: %+v", v1)
	}
	if v1.Reused {
		t.Fatalf("first delta upload marked reused: %+v", v1)
	}

	// Identical delta on the same parent deduplicates by chained hash.
	again, err := c.UploadDelta(ctx, base.Hash, strings.NewReader(triangleDelta))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != v1.ID || !again.Reused {
		t.Fatalf("re-upload not deduplicated: %+v", again)
	}

	// Stacking a second delta extends the lineage.
	v2, err := c.UploadDelta(ctx, v1.ID, strings.NewReader(secondDelta))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Parent != v1.ID || v2.Base != base.Hash || v2.Depth != 2 {
		t.Fatalf("v2 lineage: %+v", v2)
	}
	chain, ok := s.registry.Lineage(v2.ID)
	if !ok || len(chain) != 3 || chain[0] != base.Hash || chain[1] != v1.ID || chain[2] != v2.ID {
		t.Fatalf("lineage %v (ok=%v), want [base v1 v2]", chain, ok)
	}

	// The version endpoints round-trip metadata and exact delta bytes.
	got, err := c.Version(ctx, v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	got.Reused = false
	if got != v1 {
		t.Fatalf("version endpoint %+v, want %+v", got, v1)
	}
	raw, parent, err := c.VersionDelta(ctx, v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != triangleDelta || parent != base.Hash {
		t.Fatalf("delta endpoint returned %q (parent %q)", raw, parent)
	}

	st := s.registry.Stats()
	if st.Versions != 2 || st.DeltaApplies != 2 || st.VersionHits != 1 {
		t.Fatalf("registry stats: %+v", st)
	}
}

func TestDeltaUploadErrors(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	base, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}

	var apiErr *APIError
	// Unknown parent is 404.
	if _, err := c.UploadDelta(ctx, strings.Repeat("ab", 32), strings.NewReader("+ 0 1 1\n")); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown parent: %v", err)
	}
	// Malformed delta text is 400.
	if _, err := c.UploadDelta(ctx, base.Hash, strings.NewReader("+ 0\n")); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("malformed delta: %v", err)
	}
	// Invalid semantics (add with negative weight) is 400.
	if _, err := c.UploadDelta(ctx, base.Hash, strings.NewReader("+ 0 1 -2\n")); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("invalid delta: %v", err)
	}
	// Unknown version id on the read endpoints is 404.
	if _, err := c.Version(ctx, strings.Repeat("cd", 32)); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown version info: %v", err)
	}
	if _, _, err := c.VersionDelta(ctx, strings.Repeat("cd", 32)); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("unknown version delta: %v", err)
	}
}

// TestDeltaUploadRejectsOutOfRangeVertex: a one-line delta naming vertex
// 2^32-1 would size the child's offsets at 32 GiB, a fatal out-of-memory no
// recover catches. Apply bounds endpoints by parent.N() + 2·ops, so the
// upload is a 400 and registers nothing.
func TestDeltaUploadRejectsOutOfRangeVertex(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	base, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	for _, delta := range []string{"+ 4294967295 0\n", "+ 0 1 1\n- 0 10\n"} {
		_, err := c.UploadDelta(ctx, base.Hash, strings.NewReader(delta))
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Error(), "out of range") {
			t.Fatalf("delta %q: got %v, want a 400 naming the range", delta, err)
		}
	}
	if st := s.registry.Stats(); st.Versions != 0 || st.DeltaApplies != 0 {
		t.Fatalf("rejected deltas registered state: %+v", st)
	}
	// The bound admits the most vertices a batch can add: 6 + 2·2.
	if _, err := c.UploadDelta(ctx, base.Hash, strings.NewReader("+ 0 1 1\n- 0 9\n")); err != nil {
		t.Fatalf("delta at the bound rejected: %v", err)
	}
}

// TestColdDetectOnVersion verifies a version id is detectable exactly like a
// base graph: the cold path resolves it, caches under the version's own key,
// and the body carries no warm block.
func TestColdDetectOnVersion(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	_, v1 := uploadBaseAndDelta(t, c)

	r1, err := c.Detect(ctx, v1.ID, DetectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Membership) != v1.Vertices {
		t.Fatalf("membership covers %d vertices, want %d", len(r1.Membership), v1.Vertices)
	}
	if r1.Warm != nil {
		t.Fatalf("cold detect on a version carries warm info: %+v", r1.Warm)
	}
	if bytes.Contains(r1.Raw, []byte(`"warm"`)) {
		t.Fatalf("cold body mentions warm: %s", r1.Raw)
	}
	r2, err := c.Detect(ctx, v1.ID, DetectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != CacheHit || !bytes.Equal(r1.Raw, r2.Raw) {
		t.Fatalf("cold version detect not cached byte-identically (outcome %q)", r2.Cache)
	}
	if s.Runs() != 1 {
		t.Fatalf("%d runs, want 1", s.Runs())
	}
}

// TestWarmDetectLineageReplay is the serve-layer byte-replay contract for
// incremental detection: a warm detect on a depth-2 version computes the
// base cold plus one warm run per delta, caches every step, and repeats
// byte-identically — including when an independent server replays the same
// lineage with different worker counts and schedulers.
func TestWarmDetectLineageReplay(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	base, v1 := uploadBaseAndDelta(t, c)
	v2, err := c.UploadDelta(ctx, v1.ID, strings.NewReader(secondDelta))
	if err != nil {
		t.Fatal(err)
	}

	opts := DetectOptions{Seed: 5, WarmStart: true}
	r1, err := c.Detect(ctx, v2.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs() != 3 {
		t.Fatalf("%d runs for depth-2 warm detect, want 3 (base + 2 warm steps)", s.Runs())
	}
	if r1.Warm == nil {
		t.Fatal("warm response missing warm info")
	}
	if r1.Warm.Parent != v1.ID || r1.Warm.Base != base.Hash || r1.Warm.Depth != 2 ||
		r1.Warm.FrontierHops != DefaultFrontierHops {
		t.Fatalf("warm info: %+v", r1.Warm)
	}
	if r1.Graph != v2.ID || len(r1.Membership) != v2.Vertices {
		t.Fatalf("warm response addresses %q with %d members", r1.Graph, len(r1.Membership))
	}

	// Replay: everything is cached, nothing recomputes.
	r2, err := c.Detect(ctx, v2.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != CacheHit || !bytes.Equal(r1.Raw, r2.Raw) {
		t.Fatalf("warm replay not byte-identical from cache (outcome %q)", r2.Cache)
	}
	if s.Runs() != 3 {
		t.Fatalf("replay recomputed: %d runs", s.Runs())
	}

	// A warm detect on v1 is already a cache hit: the lineage walk for v2
	// cached the intermediate step under v1's own warm key.
	rv1, err := c.Detect(ctx, v1.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rv1.Cache != CacheHit || s.Runs() != 3 {
		t.Fatalf("intermediate step not reused (outcome %q, runs %d)", rv1.Cache, s.Runs())
	}

	// An independent server with different worker counts replays the
	// identical bytes — determinism is cross-replica.
	for _, alt := range []DetectOptions{
		{Seed: 5, WarmStart: true, Workers: 4},
		{Seed: 5, WarmStart: true, Workers: 2},
	} {
		_, _, c2 := newTestServer(t, DefaultConfig())
		if _, err := c2.UploadGraph(ctx, strings.NewReader(twoTriangles), false); err != nil {
			t.Fatal(err)
		}
		w1, err := c2.UploadDelta(ctx, base.Hash, strings.NewReader(triangleDelta))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := c2.UploadDelta(ctx, w1.ID, strings.NewReader(secondDelta))
		if err != nil {
			t.Fatal(err)
		}
		if w2.ID != v2.ID {
			t.Fatalf("replica derived version %q, want %q", w2.ID, v2.ID)
		}
		ra, err := c2.Detect(ctx, w2.ID, alt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra.Raw, r1.Raw) {
			t.Fatalf("opts %+v: replica bytes differ:\n%s\n%s", alt, ra.Raw, r1.Raw)
		}
	}
}

// TestWarmAndColdKeysAreSeparate pins the cache-key extension: warm and cold
// results on the same version never alias, and prepare predicts both.
func TestWarmAndColdKeysAreSeparate(t *testing.T) {
	s, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	_, v1 := uploadBaseAndDelta(t, c)

	cold, err := c.Detect(ctx, v1.ID, DetectOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Detect(ctx, v1.ID, DetectOptions{Seed: 9, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache == CacheHit {
		t.Fatal("warm detect aliased the cold cache entry")
	}
	if warm.Warm == nil || cold.Warm != nil {
		t.Fatalf("warm marker misplaced: cold=%+v warm=%+v", cold.Warm, warm.Warm)
	}

	_, _, coldKey, err := DetectRequest{Graph: v1.ID, Options: DetectOptions{Seed: 9}}.prepare()
	if err != nil {
		t.Fatal(err)
	}
	_, _, warmKey, err := DetectRequest{Graph: v1.ID, Options: DetectOptions{Seed: 9, WarmStart: true}}.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if coldKey == warmKey {
		t.Fatal("warm and cold detect keys collide")
	}
	if !strings.HasSuffix(warmKey, warmMarker(DefaultFrontierHops)) {
		t.Fatalf("warm key %q missing hop marker", warmKey)
	}
	// Both keys are wire-computable and actually populated.
	if _, ok := s.cache.get(coldKey); !ok {
		t.Fatalf("cold key %q not in cache", coldKey)
	}
	if _, ok := s.cache.get(warmKey); !ok {
		t.Fatalf("warm key %q not in cache", warmKey)
	}
	// A different hop radius is a different key (and a recompute).
	_, _, wideKey, err := DetectRequest{Graph: v1.ID, Options: DetectOptions{Seed: 9, WarmStart: true, FrontierHops: 7}}.prepare()
	if err != nil {
		t.Fatal(err)
	}
	if wideKey == warmKey {
		t.Fatal("hop radius not part of the warm key")
	}
}

func TestWarmDetectErrors(t *testing.T) {
	_, _, c := newTestServer(t, DefaultConfig())
	ctx := context.Background()
	base, err := c.UploadGraph(ctx, strings.NewReader(twoTriangles), false)
	if err != nil {
		t.Fatal(err)
	}

	var apiErr *APIError
	// warm_start on a base graph: no lineage to replay.
	if _, err := c.Detect(ctx, base.Hash, DetectOptions{WarmStart: true}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("warm on base: %v", err)
	}
	// frontier_hops without warm_start.
	if _, err := c.Detect(ctx, base.Hash, DetectOptions{FrontierHops: 2}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("hops without warm: %v", err)
	}
	// Negative frontier_hops.
	if _, err := c.Detect(ctx, base.Hash, DetectOptions{WarmStart: true, FrontierHops: -1}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("negative hops: %v", err)
	}
}
