package infomap

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
)

// lineageStep plans one evolution step on g, the shape of the serving
// benchmark's delta lineage: close up to three open triangles through a
// random vertex with at least three neighbors, and drop one of its edges
// whose far end keeps another.
func lineageStep(g *graph.Graph, r *rng.RNG) *graph.Delta {
	for {
		v := uint32(r.Intn(g.N()))
		nb := g.OutNeighbors(int(v))
		if len(nb) < 3 {
			continue
		}
		var d graph.Delta
		seen := map[[2]uint32]bool{}
		for tries := 0; tries < 32 && len(d.Ops) < 3; tries++ {
			a, b := nb[r.Intn(len(nb))], nb[r.Intn(len(nb))]
			if a > b {
				a, b = b, a
			}
			if a == b || a == v || b == v || seen[[2]uint32{a, b}] || g.HasArc(int(a), int(b)) {
				continue
			}
			seen[[2]uint32{a, b}] = true
			d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaAdd, From: a, To: b, Weight: 1})
		}
		if x := nb[r.Intn(len(nb))]; x != v && g.OutDegree(int(x)) > 1 {
			d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaRemove, From: v, To: x})
		}
		if len(d.Ops) > 0 {
			return &d
		}
	}
}

// TestOuterLoopStopsAtFixedPoint: a run stops after an outer iteration that
// moves nothing, because the next one would move nothing either. Along a
// 30-step warm lineage on both the softhash Baseline and HashGraph, every
// step that reports Moves == 0 is re-run from its own output with the same
// frontier and another seed: the re-run — the iteration the stop skipped —
// must move nothing and price the partition to the same bits. Such a step
// must also equal an OuterIters: 1 run in every reported figure.
func TestOuterLoopStopsAtFixedPoint(t *testing.T) {
	for _, kind := range []AccumKind{Baseline, HashGraph} {
		t.Run(kind.String(), func(t *testing.T) {
			g, _, err := gen.LFR(gen.DefaultLFR(1000, 0.3), rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions()
			opt.Kind = kind
			opt.Workers = 2
			res, err := Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(6)
			still := 0
			for step := 0; step < 30; step++ {
				d := lineageStep(g, r)
				if g, err = d.Apply(g); err != nil {
					t.Fatal(err)
				}
				warm := opt
				warm.WarmStart = res.Membership
				warm.FrontierSeeds = d.Touched()
				warm.FrontierHops = 2
				if res, err = Run(g, warm); err != nil {
					t.Fatal(err)
				}
				if res.Moves != 0 {
					continue
				}
				still++

				again := warm
				again.WarmStart = res.Membership
				again.Seed = opt.Seed + 1000
				rerun, err := Run(g, again)
				if err != nil {
					t.Fatal(err)
				}
				if rerun.Moves != 0 || math.Float64bits(rerun.Codelength) != math.Float64bits(res.Codelength) ||
					!slices.Equal(rerun.Membership, res.Membership) {
					t.Fatalf("step %d: re-run from a zero-move result moved %d, L %v vs %v",
						step, rerun.Moves, rerun.Codelength, res.Codelength)
				}

				once := warm
				once.OuterIters = 1
				single, err := Run(g, once)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(single.Membership, res.Membership) ||
					math.Float64bits(single.Codelength) != math.Float64bits(res.Codelength) ||
					single.Levels != res.Levels || single.Sweeps != res.Sweeps {
					t.Fatalf("step %d: OuterIters 1 gave levels=%d sweeps=%d L=%v, default levels=%d sweeps=%d L=%v",
						step, single.Levels, single.Sweeps, single.Codelength, res.Levels, res.Sweeps, res.Codelength)
				}
			}
			if still == 0 {
				t.Fatal("no warm step moved nothing; the lineage tests nothing")
			}
		})
	}
}

// TestOuterItersAttr: the run span records how many outer iterations ran,
// equal to the distinct outer indexes of its level spans — one for a warm
// run that moves nothing.
func TestOuterItersAttr(t *testing.T) {
	g := traceGraph(t)
	traced := func(opt Options) (*Result, *obs.TreeNode) {
		t.Helper()
		tr := obs.New(obs.Config{Seed: 42})
		root := tr.Begin("detect")
		opt.Trace = root
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		j, err := tr.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var roots []*obs.TreeNode
		if err := json.Unmarshal(j, &roots); err != nil {
			t.Fatal(err)
		}
		return res, roots[0].Children[0]
	}
	attr := func(n *obs.TreeNode, key string) string {
		for _, a := range n.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	cold, run := traced(DefaultOptions())
	outers := map[string]bool{}
	for _, c := range run.Children {
		if c.Name == "level" {
			outers[attr(c, "outer")] = true
		}
	}
	if got := attr(run, "outer_iters"); got == "" || got != strconv.Itoa(len(outers)) {
		t.Fatalf("cold run outer_iters=%q, level spans show %d outer iterations", got, len(outers))
	}
	warm := DefaultOptions()
	warm.WarmStart = cold.Membership
	res, run := traced(warm)
	if res.Moves != 0 {
		t.Fatalf("warm start from the run's own result moved %d", res.Moves)
	}
	if got := attr(run, "outer_iters"); got != "1" {
		t.Fatalf("zero-move warm run outer_iters=%q, want 1", got)
	}
}
