package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/serve"
)

// result line of one quick run, decoded.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func quickRun(t *testing.T, workload, trace string) runResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-workload", workload, "-seed", "3", "-seconds", "0.3", "-trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return res
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: go run . -manifest > ../BENCHMARK.json")
	}
}

// exactCounts are the per-layer counts that must repeat exactly across runs
// of one seed.
var exactCounts = []string{
	"infomap.sweeps", "infomap.levels", "infomap.moves", "infomap.frontier_size", "infomap.frozen_frac",
	"accum.accumulates", "accum.hit_ratio", "accum.chain_hops", "accum.rehashes", "accum.binned_kv",
	"accum.bin_merged_kv", "serve.runs_per_request", "serve.cache_hit_ratio", "serve.trace_dropped",
	"perf.modeled_ms",
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			for trace, specs := range map[string][]metricSpec{"0": endToEnd, "1": perLayer} {
				res := quickRun(t, w.Name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %s: correct=%t attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace %s: %d metrics, manifest names %d", trace, len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %s: metric %s = %+v, want unit %q", trace, m.Name, got, m.Unit)
					}
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; must never be 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}

func TestCountsRepeatAcrossRuns(t *testing.T) {
	for _, w := range workloadSpecs {
		a, b := quickRun(t, w.Name, "1"), quickRun(t, w.Name, "1")
		for _, name := range exactCounts {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s: %s is %v then %v", w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// A traced run compares traced with untraced ops, so both halves must run
// the same inputs: of each two input cycles one is traced, and which one
// comes first alternates.
func TestTracedOpsPairWholeCycles(t *testing.T) {
	for _, cycle := range []int{1, 8, 16} {
		tracedFirst := 0
		for pair := 0; pair < 6; pair++ {
			first := tracedOp(2*pair*cycle, cycle)
			for k := 0; k < cycle; k++ {
				a, b := tracedOp(2*pair*cycle+k, cycle), tracedOp((2*pair+1)*cycle+k, cycle)
				if a != first || b == first {
					t.Fatalf("cycle %d pair %d: op %d of the two blocks traced %t and %t", cycle, pair, k, a, b)
				}
			}
			if first {
				tracedFirst++
			}
		}
		if tracedFirst != 3 {
			t.Errorf("cycle %d: the traced block came first in %d of 6 pairs", cycle, tracedFirst)
		}
	}
}

// The delta planner sees the lineage tip without rebuilding it; its view
// must be the graph the server builds by applying the same deltas.
func TestPlannerTracksTheTip(t *testing.T) {
	data, err := deltaInput(true)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := graph.ReadEdgeList(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlanner(9, base)
	g := base
	for step := 0; step < 3*deltaDepth(true); step++ {
		d := p.next()
		want := g.NumEdges() + edgeChange(d)
		if g, err = d.Apply(g); err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != want {
			t.Fatalf("step %d: %d edges, the planner expects %d", step, g.NumEdges(), want)
		}
		p.apply(d)
	}
	for v := 0; v < g.N(); v++ {
		got := p.neighbors(uint32(v))
		slices.Sort(got)
		want := slices.Clone(g.OutNeighbors(v))
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("vertex %d: the planner sees neighbors %v, the graph has %v", v, got, want)
		}
	}
}

func TestCorruptedMembershipTripsChecks(t *testing.T) {
	data, _, err := batchInput(5, true)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.ReadEdgeList(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	opt := infomap.DefaultOptions()
	res, err := infomap.RunContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var hash [32]byte
	if err := checkBatch(g, res, &hash); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	if res.NumModules < 2 {
		t.Fatalf("test graph has %d modules; need two to corrupt", res.NumModules)
	}
	moved := *res
	moved.Membership = append([]uint32(nil), res.Membership...)
	moved.Membership[0] = (moved.Membership[0] + 1) % uint32(res.NumModules)
	if err := checkBatch(g, &moved, &hash); err == nil {
		t.Error("batch check accepted a membership with one vertex moved")
	}
	short := *res
	short.Membership = res.Membership[1:]
	if err := checkBatch(g, &short, &hash); err == nil {
		t.Error("batch check accepted a membership one entry short")
	}

	info := serve.GraphInfo{Hash: "g", Vertices: g.N()}
	resp := serve.DetectResponse{Graph: "g", Seed: 1, NumModules: res.NumModules, Codelength: res.Codelength,
		OneLevelCodelength: res.OneLevelCodelength, Membership: res.Membership}
	if err := checkDetect(resp, info, 1); err != nil {
		t.Fatalf("clean reply rejected: %v", err)
	}
	if err := sameResult(resp, res); err != nil {
		t.Fatalf("clean reply differs from its own run: %v", err)
	}
	bad := resp
	bad.Membership = moved.Membership
	if err := sameResult(bad, res); err == nil {
		t.Error("reference check accepted a membership with one vertex moved")
	}
	bad.Membership = append([]uint32(nil), res.Membership...)
	bad.Membership[0] = uint32(res.NumModules)
	if err := checkDetect(bad, info, 1); err == nil {
		t.Error("reply check accepted a module id beyond the module count")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	digests := map[string]func(seed uint64) ([]byte, error){
		"batch-hub": func(seed uint64) ([]byte, error) {
			data, seeds, err := batchInput(seed, true)
			for _, s := range seeds {
				data = binary.LittleEndian.AppendUint64(data, s)
			}
			return data, err
		},
		"serve-cold": func(seed uint64) ([]byte, error) {
			d, err := coldInputDigest(seed, true, 40)
			return d[:], err
		},
		"serve-delta": func(seed uint64) ([]byte, error) {
			d, err := deltaInputDigest(seed, true, 3*deltaDepth(true))
			return d[:], err
		},
	}
	for name, digest := range digests {
		a, err := digest(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := digest(7)
		c, _ := digest(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}
