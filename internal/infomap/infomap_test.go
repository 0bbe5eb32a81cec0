package infomap

import (
	"math"
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/trace"
)

func twoTriangles(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func sameModule(m []uint32, a, b int) bool { return m[a] == m[b] }

func TestTwoTrianglesAllBackends(t *testing.T) {
	g := twoTriangles(t)
	for _, kind := range []AccumKind{Baseline, ASA, GoMap} {
		opt := DefaultOptions()
		opt.Kind = kind
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.NumModules != 2 {
			t.Fatalf("%v: found %d modules, want 2 (membership %v)", kind, res.NumModules, res.Membership)
		}
		if !sameModule(res.Membership, 0, 1) || !sameModule(res.Membership, 1, 2) {
			t.Fatalf("%v: first triangle split: %v", kind, res.Membership)
		}
		if !sameModule(res.Membership, 3, 4) || !sameModule(res.Membership, 4, 5) {
			t.Fatalf("%v: second triangle split: %v", kind, res.Membership)
		}
		if res.Codelength >= res.OneLevelCodelength {
			t.Fatalf("%v: no compression: L=%g one-level=%g", kind, res.Codelength, res.OneLevelCodelength)
		}
	}
}

func TestBackendsAgreeOnCodelength(t *testing.T) {
	// All three backends run the identical kernel; with a CAM too large to
	// overflow they must find partitions of (near-)identical quality.
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{40, 40, 40, 40}, PIn: 0.3, POut: 0.01}, newRand(3))
	if err != nil {
		t.Fatal(err)
	}
	var ls []float64
	var mods []int
	for _, kind := range []AccumKind{Baseline, ASA, GoMap} {
		opt := DefaultOptions()
		opt.Kind = kind
		opt.Seed = 7
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, res.Codelength)
		mods = append(mods, res.NumModules)
	}
	for i := 1; i < len(ls); i++ {
		if math.Abs(ls[i]-ls[0]) > 1e-6 {
			t.Fatalf("codelengths diverge across backends: %v", ls)
		}
		if mods[i] != mods[0] {
			t.Fatalf("module counts diverge: %v", mods)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30, 30}, PIn: 0.3, POut: 0.02}, newRand(5))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seed = 42
	r1, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Codelength != r2.Codelength || r1.NumModules != r2.NumModules {
		t.Fatalf("same seed, different results: %v vs %v", r1, r2)
	}
	for i := range r1.Membership {
		if r1.Membership[i] != r2.Membership[i] {
			t.Fatalf("membership differs at %d", i)
		}
	}
}

func TestParallelWorkersDeterministic(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{50, 50, 50}, PIn: 0.25, POut: 0.01}, newRand(9))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seed = 11
	serial, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	par1, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	par2, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel runs must be reproducible with a fixed seed (evaluation is
	// read-only; commit order is worker-index order).
	if par1.Codelength != par2.Codelength {
		t.Fatalf("parallel nondeterminism: %g vs %g", par1.Codelength, par2.Codelength)
	}
	// And quality must be comparable to serial.
	if par1.Codelength > serial.Codelength*1.05 {
		t.Fatalf("parallel quality regressed: %g vs serial %g", par1.Codelength, serial.Codelength)
	}
	if len(par1.PerWorker) != 4 {
		t.Fatalf("PerWorker has %d entries", len(par1.PerWorker))
	}
}

func TestCliqueRingResolution(t *testing.T) {
	// 8 cliques of 5 joined in a ring: Infomap must keep them separate (the
	// resolution-limit case where modularity methods merge pairs).
	g, planted, err := gen.CliqueChain(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules != 8 {
		t.Fatalf("found %d modules, want 8 cliques", res.NumModules)
	}
	for v := range planted {
		if res.Membership[v] != res.Membership[int(planted[v])*5] {
			t.Fatalf("vertex %d not grouped with its clique", v)
		}
	}
}

func TestPlantedSBMRecovery(t *testing.T) {
	g, planted, err := gen.SBM(gen.SBMParams{Sizes: []int{60, 60, 60}, PIn: 0.3, POut: 0.005}, newRand(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules != 3 {
		t.Fatalf("found %d modules, want 3", res.NumModules)
	}
	// Every planted pair in the same block must share a module.
	agree, total := 0, 0
	for i := 0; i < len(planted); i += 7 {
		for j := i + 1; j < len(planted); j += 13 {
			total++
			if (planted[i] == planted[j]) == (res.Membership[i] == res.Membership[j]) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Fatalf("pair agreement %.2f with planted partition", frac)
	}
}

func TestDirectedGraph(t *testing.T) {
	// Two directed 4-cycles joined by two weak arcs.
	b := graph.NewBuilder(8, true)
	for c := 0; c < 2; c++ {
		base := uint32(c * 4)
		for i := uint32(0); i < 4; i++ {
			if err := b.AddEdge(base+i, base+(i+1)%4, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = b.AddEdge(0, 4, 0.1)
	_ = b.AddEdge(4, 0, 0.1)
	g := b.Build()
	res, totals := runKernelTotals(t, g, DefaultOptions())
	if res.NumModules != 2 {
		t.Fatalf("directed: %d modules, want 2 (%v)", res.NumModules, res.Membership)
	}
	if pr := totals[trace.KernelPageRank]; pr.Count != 1 || pr.Duration == 0 {
		t.Fatalf("PageRank kernel not timed for directed graph: %+v", pr)
	}
}

// runKernelTotals runs detection under a fresh tracer and returns the
// result with the tracer's per-name span totals.
func runKernelTotals(t *testing.T, g *graph.Graph, opt Options) (*Result, map[string]obs.SpanTotal) {
	t.Helper()
	tr := obs.New(obs.Config{})
	opt.Trace = tr.Begin("detect")
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.Totals()
}

func TestTinyCAMStillCorrect(t *testing.T) {
	// A 2-entry CAM overflows on nearly every vertex; the overflow merge
	// path must still produce a sane partition.
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{40, 40}, PIn: 0.4, POut: 0.01}, newRand(17))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Kind = ASA
	opt.ASAConfig = asa.Config{CapacityBytes: 32, EntryBytes: 16, Policy: asa.LRU}
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules != 2 {
		t.Fatalf("tiny CAM: %d modules, want 2", res.NumModules)
	}
	if res.TotalStats().Evictions == 0 {
		t.Fatal("test intended to exercise eviction but none occurred")
	}
}

func TestEdgeCases(t *testing.T) {
	// Empty graph.
	res, err := Run(graph.NewBuilder(0, false).Build(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Membership) != 0 {
		t.Fatal("empty graph produced membership")
	}
	// Single vertex.
	res, err = Run(graph.NewBuilder(1, false).Build(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules != 1 {
		t.Fatalf("single vertex: %d modules", res.NumModules)
	}
	// Edgeless graph: everyone stays a singleton.
	res, err = Run(graph.NewBuilder(5, false).Build(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumModules != 5 {
		t.Fatalf("edgeless: %d modules, want 5", res.NumModules)
	}
	// Self-loop only.
	b := graph.NewBuilder(2, false)
	_ = b.AddEdge(0, 0, 3)
	_ = b.AddEdge(0, 1, 1)
	if _, err := Run(b.Build(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := twoTriangles(t)
	cases := []func(*Options){
		func(o *Options) { o.Workers = -1 },
		func(o *Options) { o.MaxSweeps = 0 },
		func(o *Options) { o.MaxLevels = 0 },
		func(o *Options) { o.Damping = 0 },
		func(o *Options) { o.Damping = 1 },
		func(o *Options) { o.MinImprovement = -1 },
		func(o *Options) { o.Kind = AccumKind(99) },
	}
	for i, mutate := range cases {
		opt := DefaultOptions()
		mutate(&opt)
		if _, err := Run(g, opt); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	// Workers == 0 is valid: it means all CPUs.
	opt := DefaultOptions()
	opt.Workers = 0
	if _, err := Run(g, opt); err != nil {
		t.Fatalf("Workers=0 rejected: %v", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := twoTriangles(t)
	res, totals := runKernelTotals(t, g, DefaultOptions())
	st := res.TotalStats()
	if st.Accumulates == 0 {
		t.Fatal("no accumulate events recorded")
	}
	w := res.TotalWork()
	if w.ArcsProcessed == 0 || w.VerticesProcessed == 0 || w.CandidatesEvaluated == 0 {
		t.Fatalf("kernel work not recorded: %+v", w)
	}
	if res.Moves == 0 {
		t.Fatal("no moves recorded on a graph with obvious structure")
	}
	if fbc := totals[trace.KernelFindBestCommunity]; fbc.Count != uint64(res.Sweeps) || fbc.Duration == 0 {
		t.Fatalf("FindBestCommunity not timed once per sweep (%d sweeps): %+v", res.Sweeps, fbc)
	}
	// The SweepLog holds one record per sweep span, and on a cold run every
	// accumulator event happens inside a sweep.
	if len(res.SweepLog) != res.Sweeps {
		t.Fatalf("SweepLog has %d records for %d sweeps", len(res.SweepLog), res.Sweeps)
	}
	var sum accum.Stats
	for _, sw := range res.SweepLog {
		sum.Add(sw.Stats)
	}
	if sum != st {
		t.Fatalf("SweepLog stats sum %+v != run total %+v", sum, st)
	}
}

func TestModulesHelper(t *testing.T) {
	mods := Modules([]uint32{0, 1, 0, 2, 1})
	if len(mods) != 3 {
		t.Fatalf("Modules returned %d groups", len(mods))
	}
	if len(mods[0]) != 2 || mods[0][0] != 0 || mods[0][1] != 2 {
		t.Fatalf("module 0 = %v", mods[0])
	}
	if len(Modules(nil)) != 0 {
		t.Fatal("Modules(nil) should be empty")
	}
}

func TestAccumKindString(t *testing.T) {
	if Baseline.String() != "baseline" || ASA.String() != "asa" || GoMap.String() != "gomap" {
		t.Fatal("kind names wrong")
	}
	if AccumKind(9).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
}

func TestResultString(t *testing.T) {
	g := twoTriangles(t)
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); len(s) == 0 {
		t.Fatal("empty result string")
	}
}

func TestCodelengthImprovesOnLFR(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.2), newRand(21))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Codelength >= res.OneLevelCodelength {
		t.Fatalf("no compression on LFR: %g vs %g", res.Codelength, res.OneLevelCodelength)
	}
	if res.NumModules < 2 || res.NumModules > 200 {
		t.Fatalf("implausible module count %d on 600-vertex LFR", res.NumModules)
	}
}

func TestUnrecordedTeleportation(t *testing.T) {
	// Two directed 4-cycles with weak coupling, under both teleportation
	// models: both must find the two cycles; codelengths differ (different
	// objectives) but each must compress relative to its own one-level code.
	b := graph.NewBuilder(8, true)
	for c := 0; c < 2; c++ {
		base := uint32(c * 4)
		for i := uint32(0); i < 4; i++ {
			if err := b.AddEdge(base+i, base+(i+1)%4, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = b.AddEdge(0, 4, 0.1)
	_ = b.AddEdge(4, 0, 0.1)
	g := b.Build()
	var ls []float64
	for _, tp := range []Teleportation{TeleportRecorded, TeleportUnrecorded} {
		opt := DefaultOptions()
		opt.Teleport = tp
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("%v: %v", tp, err)
		}
		if res.NumModules != 2 {
			t.Fatalf("%v: %d modules, want 2", tp, res.NumModules)
		}
		if res.Codelength >= res.OneLevelCodelength {
			t.Fatalf("%v: no compression", tp)
		}
		ls = append(ls, res.Codelength)
	}
	if ls[0] == ls[1] {
		t.Fatal("recorded and unrecorded teleportation produced identical codelengths; models not distinguished")
	}
	if TeleportRecorded.String() != "recorded" || TeleportUnrecorded.String() != "unrecorded" {
		t.Fatal("teleportation names wrong")
	}
}

// TestParseNamesInvertString: the parse functions accept exactly the names
// String prints, the perf model prices every backend under its ModelName,
// and anything else is an error naming the accepted values.
func TestParseNamesInvertString(t *testing.T) {
	model := perf.DefaultModel(perf.Baseline())
	for k := Baseline; k <= HashGraph; k++ {
		if got, err := ParseAccumKind(k.String()); err != nil || got != k {
			t.Errorf("ParseAccumKind(%q) = %v, %v", k.String(), got, err)
		}
		if _, err := model.AccumCost(k.ModelName(), accum.Stats{}); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
	for _, tp := range []Teleportation{TeleportRecorded, TeleportUnrecorded} {
		if got, err := ParseTeleportation(tp.String()); err != nil || got != tp {
			t.Errorf("ParseTeleportation(%q) = %v, %v", tp.String(), got, err)
		}
	}
	if _, err := ParseAccumKind("softhash"); err == nil || err.Error() != `unknown accum "softhash" (want baseline|asa|gomap|hashgraph)` {
		t.Errorf("ParseAccumKind(softhash) error %v", err)
	}
	if _, err := ParseTeleportation(""); err == nil || err.Error() != `unknown teleport "" (want recorded|unrecorded)` {
		t.Errorf("ParseTeleportation(\"\") error %v", err)
	}
}
