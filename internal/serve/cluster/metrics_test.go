package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/serve"
	"github.com/asamap/asamap/internal/serve/promtest"
)

// nodeFamilies is every metric family a node exported before the snapshot
// became the only list of them, with its # TYPE, once it has run an ASA
// detect.
var nodeFamilies = map[string]string{
	"asamap_cache_coalesced_total":        "counter",
	"asamap_cache_entries":                "gauge",
	"asamap_cache_evictions_total":        "counter",
	"asamap_cache_hits_total":             "counter",
	"asamap_cache_misses_total":           "counter",
	"asamap_events_total":                 "counter",
	"asamap_gauge_samples_total":          "counter",
	"asamap_gauge_sum":                    "counter",
	"asamap_go_gc_pause_seconds":          "histogram",
	"asamap_go_gc_runs_total":             "counter",
	"asamap_go_goroutines":                "gauge",
	"asamap_go_heap_alloc_bytes":          "gauge",
	"asamap_go_heap_objects":              "gauge",
	"asamap_jobs_canceled_total":          "counter",
	"asamap_jobs_completed_total":         "counter",
	"asamap_jobs_rejected_total":          "counter",
	"asamap_jobs_submitted_total":         "counter",
	"asamap_kernel_invocations_total":     "counter",
	"asamap_kernel_seconds_total":         "counter",
	"asamap_queue_capacity":               "gauge",
	"asamap_queue_outstanding":            "gauge",
	"asamap_queue_wait_seconds":           "histogram",
	"asamap_registry_delta_applies_total": "counter",
	"asamap_registry_graphs":              "gauge",
	"asamap_registry_parses_total":        "counter",
	"asamap_registry_raw_hits_total":      "counter",
	"asamap_registry_versions":            "gauge",
	"asamap_request_seconds":              "histogram",
	"asamap_runs_total":                   "counter",
	"asamap_trace_dropped_total":          "counter",
	"asamap_trace_dropped_traces_total":   "counter",
	"asamap_warm_parent_decodes_total":    "counter",
}

// clusterFamilies is what a cluster node adds. The per-peer families were
// exported before without a # TYPE line; they now carry the type their
// name implies.
var clusterFamilies = map[string]string{
	"asamap_cluster_degraded_total":             "counter",
	"asamap_cluster_failovers_total":            "counter",
	"asamap_cluster_forwarded_total":            "counter",
	"asamap_cluster_graph_fetches_total":        "counter",
	"asamap_cluster_peer_cache_hits_total":      "counter",
	"asamap_cluster_peer_cache_misses_total":    "counter",
	"asamap_cluster_replication_failures_total": "counter",
	"asamap_cluster_version_fetches_total":      "counter",
	"asamap_cluster_peer_requests_total":        "counter",
	"asamap_cluster_peer_failures_total":        "counter",
	"asamap_cluster_peer_retries_total":         "counter",
	"asamap_cluster_peer_timeouts_total":        "counter",
	"asamap_cluster_breaker_trips_total":        "counter",
	"asamap_cluster_breaker_rejects_total":      "counter",
	"asamap_cluster_breaker_open":               "gauge",
}

// detectASA posts an ASA detect for hash to base and requires a 200.
func detectASA(t *testing.T, base, hash string) {
	t.Helper()
	body, _ := json.Marshal(serve.DetectRequest{Graph: hash, Options: serve.DetectOptions{Accum: "asa", Seed: 1}})
	resp, err := http.Post(base+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect on %s: status %d", base, resp.StatusCode)
	}
}

// TestClusterMetricsExposition: a single server's /metrics, a cluster node's
// /metrics and the router's /cluster/metrics are each well-formed Prometheus
// text — one # TYPE per family before its samples, contiguous families, no
// series twice — and each still carries every family, with its type, that
// the surface exported before.
func TestClusterMetricsExposition(t *testing.T) {
	single := serve.New(serve.DefaultConfig())
	ssrv := httptest.NewServer(single.Handler())
	t.Cleanup(func() { ssrv.Close(); single.Close() })
	detectASA(t, ssrv.URL, upload(t, ssrv.URL, graphA))

	// Two replicas at replication 2: both own every graph, so a detect
	// posted to replica 0 runs there.
	tc := newTestCluster(t, 2, fault.Disabled())
	detectASA(t, tc.srvs[0].URL, upload(t, tc.baseURL, graphA))

	withCluster := map[string]string{}
	for name, typ := range nodeFamilies {
		withCluster[name] = typ
	}
	for name, typ := range clusterFamilies {
		withCluster[name] = typ
	}
	federated := map[string]string{"asamap_cluster_scrape_failures_total": "counter"}
	for name, typ := range withCluster {
		federated[name] = typ
	}
	for _, surface := range []struct {
		name, url string
		want      map[string]string
	}{
		{"single /metrics", ssrv.URL + "/metrics", nodeFamilies},
		{"node /metrics", tc.srvs[0].URL + "/metrics", withCluster},
		{"router /cluster/metrics", tc.baseURL + "/cluster/metrics", federated},
	} {
		t.Run(surface.name, func(t *testing.T) {
			resp, err := http.Get(surface.url)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			fams, err := promtest.Parse(string(raw))
			if err != nil {
				t.Fatalf("%v\n%s", err, raw)
			}
			got := map[string]string{}
			for _, f := range fams {
				got[f.Name] = f.Type
			}
			for name, typ := range surface.want {
				if got[name] != typ {
					t.Errorf("family %s has type %q, want %q", name, got[name], typ)
				}
			}
		})
	}
}

// TestClusterMetricsMergedSums: /cluster/metrics merges the series each node
// now carries in its snapshot — kernel seconds, accumulator events, cluster
// routing counters — and each merged value is the sum over the nodes, in
// the merge's own order (this node first, then peers by index).
func TestClusterMetricsMergedSums(t *testing.T) {
	tc := newTestCluster(t, 2, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	for _, seed := range []uint64{1, 2, 3} {
		if status, _, _ := detect(t, tc.baseURL, hash, seed); status != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, status)
		}
	}
	cm := fetchClusterMetrics(t, tc.baseURL)
	order := []string{"-1", "0", "1"}
	if len(cm.Nodes) != len(order) {
		t.Fatalf("scraped nodes %v, want %v", graph.SortedKeys(cm.Nodes), order)
	}
	const kernel = `kernel_seconds_total{kernel="FindBestCommunity"}`
	var seconds float64
	for _, node := range order {
		seconds += cm.Nodes[node].Gauges[kernel]
	}
	if seconds <= 0 || cm.Merged.Gauges[kernel] != seconds {
		t.Errorf("merged %s = %g, want the per-node sum %g (> 0)", kernel, cm.Merged.Gauges[kernel], seconds)
	}
	for _, name := range []string{`events_total{event="AccumAccumulates"}`, "cluster_forwarded_total"} {
		var sum uint64
		for _, node := range order {
			sum += cm.Nodes[node].Counters[name]
		}
		if sum == 0 || cm.Merged.Counters[name] != sum {
			t.Errorf("merged %s = %d, want the per-node sum %d (> 0)", name, cm.Merged.Counters[name], sum)
		}
	}
}

// TestClusterMetricsMalformedPeer: a peer whose snapshot holds a histogram
// that cannot merge — malformed, or over other bounds than the rest — drops
// out of the scrape whole, like an unreachable peer: none of its counters
// reach the merge, it is absent from the nodes, and its failure is counted.
// The malformed ones use a name no other node exports, so only their own
// shape can reject them.
func TestClusterMetricsMalformedPeer(t *testing.T) {
	for name, hist := range map[string]string{
		"unsorted bounds": `"bad_seconds":{"bounds_ns":[2000,1000],"counts":[1,2,3],"sum_ns":1,"count":6}`,
		"other bounds":    `"request_seconds":{"bounds_ns":[1000],"counts":[0,6],"sum_ns":1,"count":6}`,
		"counts length":   `"bad_seconds":{"bounds_ns":[1000],"counts":[6],"sum_ns":1,"count":6}`,
	} {
		t.Run(name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `{"counters":{"runs_total":1000},"gauges":{"go_goroutines":7},`+
					`"histograms":{`+hist+`}}`)
			}))
			t.Cleanup(bad.Close)
			router := NewNode(serve.New(serve.DefaultConfig()), Config{Self: -1, Peers: []string{bad.URL}})
			rsrv := httptest.NewServer(router.Handler())
			t.Cleanup(func() { rsrv.Close(); router.Close() })

			cm := fetchClusterMetrics(t, rsrv.URL)
			if _, ok := cm.Nodes["0"]; ok {
				t.Error("the peer with a bad snapshot appears among the nodes")
			}
			if got, own := cm.Merged.Counters["runs_total"], cm.Nodes["-1"].Counters["runs_total"]; got != own {
				t.Errorf("merged runs_total = %d, want the router's own %d", got, own)
			}
			if cm.ScrapeErrors["0"] == "" || cm.ScrapeFailures["0"] != 1 {
				t.Errorf("scrape errors %v, failures %v; want one counted failure for peer 0",
					cm.ScrapeErrors, cm.ScrapeFailures)
			}
		})
	}
}
