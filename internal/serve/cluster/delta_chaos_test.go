package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/serve"
)

// deltaOne rewires graphA's bridge through a brand-new vertex; deltaTwo
// stacks on the resulting version. Fixed bytes keep ring placement and the
// chained version ids deterministic across runs.
const (
	deltaOne = "- 0 3\n+ 0 6 1\n+ 6 3 1\n= 1 2 2\n"
	deltaTwo = "= 0 6 3\n"
)

// uploadDelta posts a delta batch onto parent and returns the version info.
func uploadDelta(t *testing.T, base, parent, delta string) serve.VersionInfo {
	t.Helper()
	resp, err := http.Post(base+"/v1/graphs/"+parent+"/delta", "text/plain", strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("delta upload status %d: %s", resp.StatusCode, raw)
	}
	var info serve.VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// detectOpts posts one detection request with full wire options.
func detectOpts(t *testing.T, base, graph string, opts serve.DetectOptions) (int, string, []byte) {
	t.Helper()
	body, _ := json.Marshal(serve.DetectRequest{Graph: graph, Options: opts})
	resp, err := http.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(HeaderCluster), raw
}

// deltaRequest is one step of the delta chaos matrix: which lineage member
// to detect on, with which seed, warm or cold.
type deltaRequest struct {
	graph string // "base" | "v1" | "v2", resolved against the actual ids
	seed  uint64
	warm  bool
}

func deltaRefKey(req deltaRequest) string {
	return fmt.Sprintf("%s|%d|%v", req.graph, req.seed, req.warm)
}

// deltaReference computes ground truth on a standalone single-node server:
// the lineage ids and the exact bytes of every request in the matrix.
func deltaReference(t *testing.T, reqs []deltaRequest) (v1, v2 serve.VersionInfo, ref map[string][]byte) {
	t.Helper()
	s := serve.New(serve.DefaultConfig())
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	hash := upload(t, srv.URL, graphA)
	v1 = uploadDelta(t, srv.URL, hash, deltaOne)
	v2 = uploadDelta(t, srv.URL, v1.ID, deltaTwo)
	ref = make(map[string][]byte)
	ids := map[string]string{"base": hash, "v1": v1.ID, "v2": v2.ID}
	for _, req := range reqs {
		status, _, body := detectOpts(t, srv.URL, ids[req.graph],
			serve.DetectOptions{Seed: req.seed, WarmStart: req.warm})
		if status != http.StatusOK {
			t.Fatalf("reference %+v: status %d", req, status)
		}
		ref[deltaRefKey(req)] = body
	}
	return v1, v2, ref
}

// deltaChaosMatrix mixes cold detects on every lineage member with warm
// detects on both versions, across three seeds.
func deltaChaosMatrix() []deltaRequest {
	var reqs []deltaRequest
	for _, seed := range []uint64{1, 2, 3} {
		reqs = append(reqs,
			deltaRequest{"base", seed, false},
			deltaRequest{"v1", seed, false},
			deltaRequest{"v1", seed, true},
			deltaRequest{"v2", seed, true},
		)
	}
	return reqs
}

// runDeltaChaosScenario replays the full schedule against a fresh cluster:
// base + two stacked deltas uploaded through the router under seeded faults,
// then the request matrix with the warm target's primary owner crashing
// mid-run and reviving later. It asserts the cluster derives the same
// lineage ids as the single-replica reference and answers every request 200
// with byte-identical bodies.
func runDeltaChaosScenario(t *testing.T, refV1, refV2 serve.VersionInfo, ref map[string][]byte) []chaosOutcome {
	t.Helper()
	tc := newTestCluster(t, 3, fault.Config{
		Seed:      4321,
		DropProb:  0.12,
		DupProb:   0.08,
		DelayProb: 0.08,
		FailProb:  0.12,
	})
	hash := upload(t, tc.baseURL, graphA)
	v1 := uploadDelta(t, tc.baseURL, hash, deltaOne)
	v2 := uploadDelta(t, tc.baseURL, v1.ID, deltaTwo)
	// Same base + same ordered deltas must chain to the same version ids on
	// the cluster as on the standalone reference — lineage is content-derived.
	if v1.ID != refV1.ID || v2.ID != refV2.ID {
		t.Fatalf("cluster lineage [%s %s] != reference [%s %s]",
			v1.ID[:8], v2.ID[:8], refV1.ID[:8], refV2.ID[:8])
	}
	if v1.Parent != hash || v2.Parent != v1.ID || v2.Base != hash || v2.Depth != 2 {
		t.Fatalf("cluster lineage metadata wrong: v1=%+v v2=%+v", v1, v2)
	}
	ids := map[string]string{"base": hash, "v1": v1.ID, "v2": v2.ID}
	victim := NewRing(3, 64, 42).Owners(v2.ID, 2)[0]

	reqs := deltaChaosMatrix()
	var outcomes []chaosOutcome
	for i, req := range reqs {
		switch i {
		case 4:
			tc.down[victim].Store(true) // crash the warm target's primary owner mid-run
		case 9:
			tc.down[victim].Store(false) // revive
		}
		status, path, body := detectOpts(t, tc.baseURL, ids[req.graph],
			serve.DetectOptions{Seed: req.seed, WarmStart: req.warm})
		if status != http.StatusOK {
			t.Fatalf("request %d %+v: status %d — a request was lost", i, req, status)
		}
		if !bytes.Equal(body, ref[deltaRefKey(req)]) {
			t.Fatalf("request %d %+v: bytes differ from single-replica reference:\n%s\nwant\n%s",
				i, req, body, ref[deltaRefKey(req)])
		}
		outcomes = append(outcomes, chaosOutcome{Status: status, Path: path})
	}

	if st := tc.router.Stats(); st.Forwarded == 0 {
		t.Fatal("delta chaos run forwarded nothing")
	}
	if tc.router.peers[victim].Stats().BreakerTrips == 0 {
		t.Fatal("crashed owner never tripped its breaker")
	}
	m := metricsText(t, tc.baseURL)
	for _, want := range []string{
		"asamap_cluster_version_fetches_total",
		"asamap_registry_versions 2",
		"asamap_registry_delta_applies_total",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	return outcomes
}

// TestClusterDeltaChaosByteReplay is the incremental-detection chaos
// acceptance test: delta replication under a seeded schedule of drops,
// duplicates, delays, injected 5xx, and a mid-run crash/revive of the warm
// target's primary owner still yields the same version lineage and
// byte-identical detect responses (cold and warm) as a single-replica
// server — and the identical scenario reproduces the identical outcome
// sequence.
func TestClusterDeltaChaosByteReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tier skipped in -short")
	}
	refV1, refV2, ref := deltaReference(t, deltaChaosMatrix())
	first := runDeltaChaosScenario(t, refV1, refV2, ref)
	second := runDeltaChaosScenario(t, refV1, refV2, ref)
	if len(first) != len(second) {
		t.Fatalf("outcome counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d: outcome diverged across identical runs: %+v vs %+v — "+
				"the fault schedule is not deterministic", i, first[i], second[i])
		}
	}
}

// TestClusterDeltaOnDemandLineageFetch pins the ancestor-fetch path: a
// replica that receives a replicated delta without ever having seen the base
// graph pulls the missing lineage from its peers and still derives the same
// version id and byte-identical warm results.
func TestClusterDeltaOnDemandLineageFetch(t *testing.T) {
	tc := newTestCluster(t, 2, fault.Disabled())
	// Plant the base graph on replica 0 only: the forwarded marker suppresses
	// replication, so replica 1 has never seen it.
	req, err := http.NewRequest(http.MethodPost, tc.srvs[0].URL+"/v1/graphs", strings.NewReader(graphA))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(HeaderForwarded, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info serve.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A first-hand delta upload on replica 0 replicates to the version's
	// owners — at replication 2 that includes replica 1, which must fetch the
	// base graph on demand before it can apply the delta.
	v1 := uploadDelta(t, tc.srvs[0].URL, info.Hash, deltaOne)
	if _, ok := tc.nodes[1].local.Registry().Resolve(v1.ID); !ok {
		t.Fatal("replica 1 did not materialize the replicated version")
	}
	got, ok := tc.nodes[1].local.Registry().Version(v1.ID)
	if !ok || got.Parent != info.Hash || got.Depth != 1 {
		t.Fatalf("replica 1 version metadata: %+v", got)
	}
	if fetches := tc.nodes[1].Stats().GraphFetches; fetches == 0 {
		t.Fatal("replica 1 applied the delta without fetching the missing base graph")
	}

	// Warm detects answered by each replica independently are byte-identical.
	s1, _, body0 := detectOpts(t, tc.srvs[0].URL, v1.ID, serve.DetectOptions{Seed: 3, WarmStart: true})
	s2, _, body1 := detectOpts(t, tc.srvs[1].URL, v1.ID, serve.DetectOptions{Seed: 3, WarmStart: true})
	if s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("warm detect statuses %d/%d", s1, s2)
	}
	if !bytes.Equal(body0, body1) {
		t.Fatal("replicas disagree on warm detect bytes")
	}
}
