package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"time"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/obs/propagate"
	"github.com/asamap/asamap/internal/serve"
	"github.com/asamap/asamap/internal/trace"
)

// nodeLabel names a replica index for trace tracks and federation maps.
// Index -1 is the shard-less router.
func nodeLabel(i int) string {
	if i < 0 {
		return "router"
	}
	return fmt.Sprintf("replica %d", i)
}

// ClusterMetrics is the ?format=json shape of /cluster/metrics: every
// reachable node's snapshot, the exact merge, and per-peer scrape failures.
type ClusterMetrics struct {
	Self int `json:"self"`
	// Nodes maps replica index (stringified, -1 = router) to that node's
	// snapshot. Only nodes that answered this scrape appear.
	Nodes map[string]serve.MetricsSnapshot `json:"nodes"`
	// Merged is the order-independent aggregate: counters and gauges summed,
	// histograms merged bucket-by-bucket over identical bounds.
	Merged serve.MetricsSnapshot `json:"merged"`
	// ScrapeErrors maps replica index to the failure that kept it out of this
	// scrape; ScrapeFailures is the cumulative per-peer count.
	ScrapeErrors   map[string]string `json:"scrape_errors,omitempty"`
	ScrapeFailures map[string]uint64 `json:"scrape_failures,omitempty"`
}

// gatherClusterMetrics scrapes the local snapshot plus every peer's
// /metrics/snapshot and merges them. A peer whose snapshot does not merge
// drops out of the scrape whole, like an unreachable one.
func (n *Node) gatherClusterMetrics(r *http.Request) ClusterMetrics {
	local := n.local.MetricsSnapshot()
	out := ClusterMetrics{
		Self:  n.cfg.Self,
		Nodes: map[string]serve.MetricsSnapshot{fmt.Sprint(n.cfg.Self): local},
		Merged: serve.MetricsSnapshot{
			Counters:   map[string]uint64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]trace.HistogramSnapshot{},
		},
		ScrapeErrors: map[string]string{},
	}
	// This node merges first, then the peers in index order, so every float
	// sum adds its terms in the same order on every scrape. Merging into an
	// empty snapshot cannot fail.
	_ = mergeSnapshot(out.Merged, local)
	hdr := http.Header{}
	hdr.Set(HeaderForwarded, "1")
	for i, pc := range n.peers {
		if pc == nil {
			continue
		}
		var snap serve.MetricsSnapshot
		resp, err := pc.Do(r.Context(), http.MethodGet, "/metrics/snapshot", hdr, nil, fmt.Sprintf("metrics|%d", i))
		if err != nil || resp.Status != http.StatusOK {
			err = errors.New(errString(err, resp))
		} else if err = json.Unmarshal(resp.Body, &snap); err != nil {
			err = fmt.Errorf("bad snapshot: %w", err)
		} else {
			err = mergeSnapshot(out.Merged, snap)
		}
		if err != nil {
			n.scrapeFails[i].Add(1)
			out.ScrapeErrors[fmt.Sprint(i)] = err.Error()
			continue
		}
		out.Nodes[fmt.Sprint(i)] = snap
	}
	if len(n.peers) > 0 {
		out.ScrapeFailures = map[string]uint64{}
		for i := range n.peers {
			if n.peers[i] != nil {
				out.ScrapeFailures[fmt.Sprint(i)] = n.scrapeFails[i].Load()
			}
		}
	}
	return out
}

// mergeSnapshot adds snap into m: counters and gauges sum, histograms merge
// bucket by bucket through trace.HistogramSnapshot.Merge. Every histogram of
// snap must be well-formed and over the same bounds as m's of that name;
// when one is not, mergeSnapshot changes nothing of m.
func mergeSnapshot(m, snap serve.MetricsSnapshot) error {
	merged := make(map[string]trace.HistogramSnapshot, len(snap.Histograms))
	for _, name := range graph.SortedKeys(snap.Histograms) {
		h, err := m.Histograms[name].Merge(snap.Histograms[name])
		if err != nil {
			return fmt.Errorf("histogram %s: %w", name, err)
		}
		merged[name] = h
	}
	for name, v := range snap.Counters {
		m.Counters[name] += v
	}
	for name, v := range snap.Gauges {
		m.Gauges[name] += v
	}
	maps.Copy(m.Histograms, merged)
	return nil
}

// handleClusterMetrics serves the cluster-wide aggregate: Prometheus text by
// default, the full per-node JSON under ?format=json. Aggregation uses the
// exact bucket-wise histogram merge, so a quantile read here equals the
// quantile of the union of every node's samples — not an average of
// quantiles. The text form renders the merge, plus this node's per-peer
// scrape failures, through the snapshot's own writer.
func (n *Node) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	cm := n.gatherClusterMetrics(r)
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, cm)
		return
	}
	for peer, fails := range cm.ScrapeFailures {
		cm.Merged.Counters[`cluster_scrape_failures_total{peer="`+peer+`"}`] = fails
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# Cluster-wide aggregate over %d of %d nodes.\n", len(cm.Nodes), n.nodeCount())
	cm.Merged.WritePrometheus(w)
}

// nodeCount is the cluster size including a shard-less router.
func (n *Node) nodeCount() int {
	if len(n.cfg.Peers) == 0 {
		return 1
	}
	c := len(n.cfg.Peers)
	if n.cfg.Self < 0 {
		c++ // the router itself holds no shard but still reports metrics
	}
	return c
}

// traceNodePayload is one node's segment of a merged trace.
type traceNodePayload struct {
	Node  int                 `json:"node"`
	Label string              `json:"label"`
	Spans []serve.SpanPayload `json:"spans"`
}

// handleTraceByID assembles the cluster-wide view of one distributed trace.
// A trace is not ring-addressable — any node may hold a segment (the route a
// request took depends on the fault schedule, not the key) — so the node
// fans out to every peer, stitches the answers, and emits either the merged
// JSON (node segments + the canonical deterministic tree) or, under
// ?format=chrome, a Perfetto export with one process track per node.
// Forwarded collection requests serve only the local segment: one hop of
// fan-out, never a storm.
func (n *Node) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if len(n.peers) == 0 || r.Header.Get(HeaderForwarded) != "" {
		n.local.Mux().ServeHTTP(w, r)
		return
	}
	id, err := propagate.ParseID(r.PathValue("id"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad trace id: "+err.Error())
		return
	}
	hex := propagate.FormatID(id)

	type segment struct {
		node  int
		label string
		epoch time.Time
		spans []obs.SpanData
	}
	var segments []segment
	if local := n.local.TraceSpans(id); len(local) > 0 {
		segments = append(segments, segment{
			node: n.cfg.Self, label: nodeLabel(n.cfg.Self),
			epoch: n.local.Tracer().Epoch(), spans: local,
		})
	}
	scrapeErrors := map[string]string{}
	hdr := http.Header{}
	hdr.Set(HeaderForwarded, "1")
	for i, pc := range n.peers {
		if pc == nil {
			continue
		}
		resp, perr := pc.Do(r.Context(), http.MethodGet, "/debug/trace/"+hex, hdr, nil, "trace|"+hex)
		if perr != nil || (resp.Status != http.StatusOK && resp.Status != http.StatusNotFound) {
			scrapeErrors[fmt.Sprint(i)] = errString(perr, resp)
			continue
		}
		if resp.Status == http.StatusNotFound {
			continue // the trace never touched this node
		}
		var payload struct {
			Spans []serve.SpanPayload `json:"spans"`
		}
		if err := json.Unmarshal(resp.Body, &payload); err != nil {
			scrapeErrors[fmt.Sprint(i)] = "bad payload: " + err.Error()
			continue
		}
		// Rebuild against the zero epoch: peer clocks are not aligned with
		// ours, so the shipped epoch-relative offsets are the truth we keep.
		seg := segment{node: i, label: nodeLabel(i)}
		for _, sp := range payload.Spans {
			sd, err := sp.SpanData(time.Time{})
			if err != nil {
				scrapeErrors[fmt.Sprint(i)] = "bad span: " + err.Error()
				continue
			}
			seg.spans = append(seg.spans, sd)
		}
		if len(seg.spans) > 0 {
			segments = append(segments, seg)
		}
	}
	if len(segments) == 0 {
		jsonError(w, http.StatusNotFound, "trace not found on any node")
		return
	}

	if r.URL.Query().Get("format") == "chrome" {
		tracks := make([]obs.NodeTrack, len(segments))
		for i, seg := range segments {
			tracks[i] = obs.NodeTrack{
				// PID 0 is reserved by some viewers; shift indices up (router
				// Self=-1 lands on 1, replicas on i+2).
				PID:   seg.node + 2,
				Label: seg.label,
				Epoch: seg.epoch,
				Spans: seg.spans,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteMergedChromeTrace(w, tracks)
		return
	}

	var all []obs.SpanData
	nodes := make([]traceNodePayload, len(segments))
	for i, seg := range segments {
		p := traceNodePayload{Node: seg.node, Label: seg.label, Spans: make([]serve.SpanPayload, len(seg.spans))}
		for j, sp := range seg.spans {
			p.Spans[j] = serve.NewSpanPayload(sp, seg.epoch)
		}
		nodes[i] = p
		all = append(all, seg.spans...)
	}
	out := map[string]any{
		"trace":     hex,
		"nodes":     nodes,
		"canonical": obs.BuildCanonicalTree(all),
	}
	if len(scrapeErrors) > 0 {
		out["errors"] = scrapeErrors
	}
	writeJSON(w, http.StatusOK, out)
}
