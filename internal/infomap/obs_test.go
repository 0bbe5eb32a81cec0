package infomap

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
)

// traceGraph builds a small SBM with clear communities for trace tests.
func traceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30, 30}, PIn: 0.4, POut: 0.02}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runTraced runs detection under a fresh tracer and returns the canonical
// span-tree JSON plus the result.
func runTraced(t *testing.T, g *graph.Graph, workers int) ([]byte, *Result) {
	return runTracedKind(t, g, ASA, workers)
}

func runTracedKind(t *testing.T, g *graph.Graph, kind AccumKind, workers int) ([]byte, *Result) {
	t.Helper()
	tr := obs.New(obs.Config{Seed: 42})
	root := tr.Begin("detect")
	opt := DefaultOptions()
	opt.Kind = kind
	opt.Workers = workers
	opt.Seed = 7
	opt.Trace = root
	res, err := RunContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	j, err := tr.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return j, res
}

// TestTraceCanonicalInvariance is the observability determinism contract:
// identical seeds produce byte-identical canonical span trees across worker
// counts and steal schedules — per-worker spans and dispatch-shape
// attributes are volatile and excluded.
func TestTraceCanonicalInvariance(t *testing.T) {
	g := traceGraph(t)
	base, res1 := runTraced(t, g, 1)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"2-workers", 2},
		{"4-workers", 4},
		{"3-workers", 3},
	} {
		j, res := runTraced(t, g, tc.workers)
		if !bytes.Equal(base, j) {
			t.Errorf("%s: canonical span tree differs from 1-worker baseline:\n--- base ---\n%s\n--- %s ---\n%s",
				tc.name, base, tc.name, j)
		}
		if res.Codelength != res1.Codelength {
			t.Errorf("%s: codelength differs (%v vs %v) — result determinism broken, trace comparison moot",
				tc.name, res.Codelength, res1.Codelength)
		}
	}
}

// TestTraceCanonicalInvarianceHashGraph: the trace contract extends to the
// HashGraph backend — sweep spans carry the resolve-pass counters
// (hg_binned_kv / hg_scattered_kv / hg_bin_merged_kv), which are per-session
// sums and therefore schedule-invariant, and the canonical tree stays
// byte-identical across worker counts and steal schedules.
func TestTraceCanonicalInvarianceHashGraph(t *testing.T) {
	g := traceGraph(t)
	base, res1 := runTracedKind(t, g, HashGraph, 1)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"2-workers", 2},
		{"4-workers", 4},
	} {
		j, res := runTracedKind(t, g, HashGraph, tc.workers)
		if !bytes.Equal(base, j) {
			t.Errorf("%s: canonical span tree differs from 1-worker baseline:\n--- base ---\n%s\n--- %s ---\n%s",
				tc.name, base, tc.name, j)
		}
		if res.Codelength != res1.Codelength {
			t.Errorf("%s: codelength differs (%v vs %v)", tc.name, res.Codelength, res1.Codelength)
		}
	}
	var roots []*obs.TreeNode
	if err := json.Unmarshal(base, &roots); err != nil {
		t.Fatal(err)
	}
	var sweep *obs.TreeNode
	var walk func(n *obs.TreeNode)
	walk = func(n *obs.TreeNode) {
		if n.Name == "sweep" && sweep == nil {
			sweep = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	if sweep == nil {
		t.Fatal("no sweep span in hashgraph trace")
	}
	attrs := map[string]string{}
	for _, a := range sweep.Attrs {
		attrs[a.Key] = a.Value
	}
	for _, key := range []string{"hg_binned_kv", "hg_scattered_kv", "hg_bin_merged_kv"} {
		if attrs[key] == "" {
			t.Errorf("sweep span missing %s attr: %+v", key, sweep.Attrs)
		}
	}
	if attrs["hg_binned_kv"] == "0" {
		t.Error("hashgraph run recorded zero binned pairs — resolve counters not wired")
	}
}

// TestTraceNesting checks the exported structure: detect → run → {PageRank,
// level → {sweep → {FindBestCommunity, UpdateMembers}, Convert2SuperNode}},
// with the accumulator telemetry attached where the issue specifies.
func TestTraceNesting(t *testing.T) {
	g := traceGraph(t)
	j, res := runTraced(t, g, 2)
	var roots []*obs.TreeNode
	if err := json.Unmarshal(j, &roots); err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Name != "detect" {
		t.Fatalf("want one 'detect' root, got %+v", roots)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Name != "run" {
		t.Fatalf("want a single 'run' child under the root, got %+v", roots[0].Children)
	}
	run := roots[0].Children[0]
	attr := func(n *obs.TreeNode, key string) string {
		for _, a := range n.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	if attr(run, "seed") != "7" || attr(run, "kind") != "asa" {
		t.Errorf("run attrs wrong: %+v", run.Attrs)
	}
	if attr(run, "workers") != "" {
		t.Error("volatile workers attr leaked into the canonical tree")
	}
	if len(run.Children) == 0 || run.Children[0].Name != "PageRank" {
		t.Fatalf("first run child should be PageRank, got %+v", run.Children)
	}
	levels, sweeps := 0, 0
	for _, c := range run.Children[1:] {
		if c.Name != "level" {
			t.Fatalf("non-level child under run: %s", c.Name)
		}
		levels++
		for _, sc := range c.Children {
			switch sc.Name {
			case "sweep":
				sweeps++
				if len(sc.Children) != 2 || sc.Children[0].Name != "FindBestCommunity" || sc.Children[1].Name != "UpdateMembers" {
					t.Fatalf("sweep children wrong: %+v", sc.Children)
				}
				if len(sc.Children[0].Children) != 0 {
					t.Error("volatile worker spans leaked under FindBestCommunity")
				}
				if attr(sc, "cam_hits") == "" || attr(sc, "codelength") == "" {
					t.Errorf("sweep missing telemetry attrs: %+v", sc.Attrs)
				}
				if attr(sc, "steals") != "" || attr(sc, "imbalance") != "" {
					t.Error("volatile dispatch attrs leaked into sweep")
				}
			case "Convert2SuperNode":
			default:
				t.Fatalf("unexpected child under level: %s", sc.Name)
			}
		}
	}
	if levels != res.Levels {
		t.Errorf("trace has %d level spans, result reports %d", levels, res.Levels)
	}
	if sweeps != res.Sweeps {
		t.Errorf("trace has %d sweep spans, result reports %d", sweeps, res.Sweeps)
	}
}
