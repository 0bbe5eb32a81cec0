package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/trace"
)

// fetchClusterMetrics scrapes base's /cluster/metrics?format=json.
func fetchClusterMetrics(t *testing.T, base string) ClusterMetrics {
	t.Helper()
	resp, err := http.Get(base + "/cluster/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/metrics status %d", resp.StatusCode)
	}
	var cm ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestClusterMetricsFederation: /cluster/metrics on the router aggregates
// every node's snapshot exactly — counters and gauges sum, and every merged
// histogram equals the bucket-wise merge of the per-node histograms, so its
// quantiles are the quantiles of the union of all samples.
func TestClusterMetricsFederation(t *testing.T) {
	tc := newTestCluster(t, 2, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	for _, seed := range []uint64{1, 2, 3} {
		status, _, _ := detect(t, tc.baseURL, hash, seed)
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, status)
		}
	}

	cm := fetchClusterMetrics(t, tc.baseURL)
	if cm.Self != -1 {
		t.Errorf("self = %d, want the router's -1", cm.Self)
	}
	for _, node := range []string{"-1", "0", "1"} {
		if _, ok := cm.Nodes[node]; !ok {
			t.Errorf("node %s missing from the scrape (have %v)", node, graph.SortedKeys(cm.Nodes))
		}
	}
	if len(cm.ScrapeErrors) != 0 {
		t.Errorf("scrape errors with no faults: %v", cm.ScrapeErrors)
	}

	// Counters: the merged value must be the exact integer sum.
	for _, name := range []string{"jobs_completed_total", "runs_total", "cache_misses_total"} {
		var sum uint64
		for _, snap := range cm.Nodes {
			sum += snap.Counters[name]
		}
		if cm.Merged.Counters[name] != sum {
			t.Errorf("merged counter %s = %d, want the per-node sum %d", name, cm.Merged.Counters[name], sum)
		}
	}
	if cm.Merged.Counters["jobs_completed_total"] < 3 {
		t.Errorf("cluster completed %d jobs, want >= 3", cm.Merged.Counters["jobs_completed_total"])
	}

	// Histograms: recompute the merge independently and require exact
	// equality — counts, sum, and therefore every quantile.
	for _, name := range []string{"request_seconds", "queue_wait_seconds", "go_gc_pause_seconds"} {
		var want trace.HistogramSnapshot
		for _, node := range graph.SortedKeys(cm.Nodes) {
			h, ok := cm.Nodes[node].Histograms[name]
			if !ok {
				t.Fatalf("node %s snapshot lacks histogram %s", node, name)
			}
			var err error
			if want, err = want.Merge(h); err != nil {
				t.Fatalf("node %s histogram %s: %v", node, name, err)
			}
		}
		got := cm.Merged.Histograms[name]
		if got.Count != want.Count || got.SumNS != want.SumNS {
			t.Errorf("merged %s: count/sum (%d, %v), want (%d, %v)", name, got.Count, got.SumNS, want.Count, want.SumNS)
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Errorf("merged %s bucket %d = %d, want %d", name, i, got.Counts[i], want.Counts[i])
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if got.Quantile(q) != want.Quantile(q) {
				t.Errorf("merged %s q%g = %v, want the exact-merge quantile %v", name, q, got.Quantile(q), want.Quantile(q))
			}
		}
	}
	if cm.Merged.Histograms["request_seconds"].Count == 0 {
		t.Error("merged request_seconds histogram saw no samples")
	}

	// The Prometheus rendering carries the merged families and the per-peer
	// scrape-failure counters.
	m := metricsTextAt(t, tc.baseURL, "/cluster/metrics")
	for _, want := range []string{
		"asamap_jobs_completed_total",
		"asamap_go_goroutines",
		"# TYPE asamap_request_seconds histogram",
		`asamap_cluster_scrape_failures_total{peer="0"} 0`,
		`asamap_cluster_scrape_failures_total{peer="1"} 0`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/cluster/metrics missing %q", want)
		}
	}
}

// TestClusterMetricsScrapeFailureAccounting: a downed peer drops out of the
// scrape with its failure recorded and counted, while the rest of the
// cluster still aggregates.
func TestClusterMetricsScrapeFailureAccounting(t *testing.T) {
	tc := newTestCluster(t, 2, fault.Disabled())
	hash := upload(t, tc.baseURL, graphA)
	if status, _, _ := detect(t, tc.baseURL, hash, 9); status != http.StatusOK {
		t.Fatalf("detect status %d", status)
	}

	tc.down[1].Store(true)
	cm := fetchClusterMetrics(t, tc.baseURL)
	if _, ok := cm.Nodes["1"]; ok {
		t.Error("downed peer 1 still appears in the scrape")
	}
	if _, ok := cm.Nodes["0"]; !ok {
		t.Error("healthy peer 0 missing from the scrape")
	}
	if cm.ScrapeErrors["1"] == "" {
		t.Errorf("no scrape error recorded for the downed peer: %v", cm.ScrapeErrors)
	}
	if cm.ScrapeFailures["1"] == 0 {
		t.Errorf("scrape failure not counted: %v", cm.ScrapeFailures)
	}

	// The merged view now covers only the reachable nodes.
	var sum uint64
	for _, snap := range cm.Nodes {
		sum += snap.Counters["jobs_completed_total"]
	}
	if cm.Merged.Counters["jobs_completed_total"] != sum {
		t.Errorf("merged counter %d != reachable sum %d", cm.Merged.Counters["jobs_completed_total"], sum)
	}

	m := metricsTextAt(t, tc.baseURL, "/cluster/metrics")
	if !strings.Contains(m, `asamap_cluster_scrape_failures_total{peer="1"}`) {
		t.Errorf("/cluster/metrics missing the peer-1 failure counter:\n%s", m)
	}

	// Revived, the peer rejoins the scrape; the cumulative failure count
	// stays.
	tc.down[1].Store(false)
	cm = fetchClusterMetrics(t, tc.baseURL)
	if _, ok := cm.Nodes["1"]; !ok {
		t.Error("revived peer 1 missing from the scrape")
	}
	if cm.ScrapeFailures["1"] == 0 {
		t.Error("cumulative scrape-failure count reset on revival")
	}
}

// metricsTextAt scrapes an arbitrary text-metrics path on base.
func metricsTextAt(t *testing.T, base, path string) string {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}
