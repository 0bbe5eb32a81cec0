package mapeq

import (
	"context"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
)

func TestPlogp(t *testing.T) {
	if Plogp(0) != 0 {
		t.Fatal("Plogp(0) != 0")
	}
	if Plogp(1) != 0 {
		t.Fatal("Plogp(1) != 0")
	}
	if math.Abs(Plogp(0.5)-(-0.5)) > 1e-15 {
		t.Fatalf("Plogp(0.5) = %g, want -0.5", Plogp(0.5))
	}
	if Plogp(-1) != 0 {
		t.Fatal("Plogp of negative should be 0")
	}
}

func twoTriangles(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6, false)
	edges := [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestUndirectedFlowSums(t *testing.T) {
	g := twoTriangles(t)
	f, err := NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range f.NodeFlow {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("node flows sum to %g", sum)
	}
	arcSum := 0.0
	for _, fl := range f.OutFlow {
		arcSum += fl
	}
	if math.Abs(arcSum-1) > 1e-12 {
		t.Fatalf("arc flows sum to %g (no self-loops in this graph)", arcSum)
	}
	// Conservation: ArcOut == NodeFlow for every vertex (no teleportation).
	for u := 0; u < g.N(); u++ {
		if math.Abs(f.ArcOut[u]-f.NodeFlow[u]) > 1e-12 {
			t.Fatalf("vertex %d: ArcOut %g != NodeFlow %g", u, f.ArcOut[u], f.NodeFlow[u])
		}
	}
}

func TestUndirectedFlowRejectsDirected(t *testing.T) {
	b := graph.NewBuilder(2, true)
	_ = b.AddEdge(0, 1, 1)
	if _, err := NewUndirectedFlow(b.Build()); err == nil {
		t.Fatal("directed graph accepted")
	}
}

func TestSelfLoopFlowZero(t *testing.T) {
	b := graph.NewBuilder(2, false)
	_ = b.AddEdge(0, 0, 5)
	_ = b.AddEdge(0, 1, 1)
	f, err := NewUndirectedFlow(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	// Arc 0->0 must carry zero flow.
	g := f.G
	nb := g.OutNeighbors(0)
	for i, v := range nb {
		idx := i // vertex 0's row starts at offset 0
		if v == 0 && f.OutFlow[idx] != 0 {
			t.Fatalf("self-loop arc carries flow %g", f.OutFlow[idx])
		}
	}
}

func directedFlow(t *testing.T, g *graph.Graph, damping float64) *Flow {
	t.Helper()
	cfg := pagerank.DefaultConfig()
	cfg.Damping = damping
	res, err := pagerank.ComputeContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDirectedFlow(g, res.Rank, damping)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDirectedFlowConservation(t *testing.T) {
	r := rng.New(101)
	g, err := gen.RMAT(8, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	f := directedFlow(t, g, 0.85)
	for u := 0; u < g.N(); u++ {
		// ArcOut + TeleOut == NodeFlow for vertices without self-loops.
		if g.HasArc(u, u) {
			continue
		}
		got := f.ArcOut[u] + f.TeleOut[u]
		if math.Abs(got-f.NodeFlow[u]) > 1e-9 {
			t.Fatalf("vertex %d: out %g != flow %g", u, got, f.NodeFlow[u])
		}
	}
	landSum := 0.0
	for _, l := range f.Land {
		landSum += l
	}
	if math.Abs(landSum-1) > 1e-12 {
		t.Fatalf("landing shares sum to %g", landSum)
	}
}

func TestDirectedFlowValidation(t *testing.T) {
	b := graph.NewBuilder(2, true)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	if _, err := NewDirectedFlow(g, []float64{1}, 0.85); err == nil {
		t.Fatal("short rank accepted")
	}
	if _, err := NewDirectedFlow(g, []float64{0.5, 0.5}, 1.5); err == nil {
		t.Fatal("bad damping accepted")
	}
	ub := graph.NewBuilder(2, false)
	_ = ub.AddEdge(0, 1, 1)
	if _, err := NewDirectedFlow(ub.Build(), []float64{0.5, 0.5}, 0.85); err == nil {
		t.Fatal("undirected graph accepted by NewDirectedFlow")
	}
}

// moveFlows computes the accumulated arc flows between vertex v and the two
// modules, the way the FindBestCommunity kernel would via hashing.
func moveFlows(f *Flow, membership []uint32, v int, old, newMod uint32) (outOld, inOld, outNew, inNew float64) {
	g := f.G
	base := int64(0)
	for u := 0; u < v; u++ {
		base += int64(g.OutDegree(u))
	}
	nb := g.OutNeighbors(v)
	for i, tgt := range nb {
		if int(tgt) == v {
			continue
		}
		fl := f.OutFlow[int(base)+i]
		switch membership[tgt] {
		case old:
			outOld += fl
		case newMod:
			outNew += fl
		}
	}
	base = 0
	for u := 0; u < v; u++ {
		base += int64(g.InDegree(u))
	}
	in := g.InNeighbors(v)
	for i, src := range in {
		if int(src) == v {
			continue
		}
		fl := f.InFlow[int(base)+i]
		switch membership[src] {
		case old:
			inOld += fl
		case newMod:
			inNew += fl
		}
	}
	return
}

func freshCodelength(t *testing.T, f *Flow, membership []uint32, numModules int) float64 {
	t.Helper()
	mcopy := make([]uint32, len(membership))
	copy(mcopy, membership)
	st, err := NewState(f, mcopy, numModules)
	if err != nil {
		t.Fatal(err)
	}
	return st.Codelength()
}

func TestCodelengthTwoTriangles(t *testing.T) {
	g := twoTriangles(t)
	f, err := NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	// The natural partition must beat both all-in-one and all-singletons.
	natural := freshCodelength(t, f, []uint32{0, 0, 0, 1, 1, 1}, 2)
	single := freshCodelength(t, f, []uint32{0, 0, 0, 0, 0, 0}, 1)
	singletons := freshCodelength(t, f, []uint32{0, 1, 2, 3, 4, 5}, 6)
	if natural >= single {
		t.Fatalf("natural %g >= one-module %g", natural, single)
	}
	if natural >= singletons {
		t.Fatalf("natural %g >= singletons %g", natural, singletons)
	}
	// One-module codelength equals the one-level entropy (no exits).
	if math.Abs(single-OneLevelCodelength(f)) > 1e-12 {
		t.Fatalf("one module L %g != one-level entropy %g", single, OneLevelCodelength(f))
	}
}

func TestDeltaMatchesFreshUndirected(t *testing.T) {
	r := rng.New(55)
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{20, 20, 20}, PIn: 0.3, POut: 0.05}, r)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	testDeltaMatchesFresh(t, f, r)
}

func TestDeltaMatchesFreshDirected(t *testing.T) {
	r := rng.New(56)
	g, err := gen.RMAT(6, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	f := directedFlow(t, g, 0.85)
	testDeltaMatchesFresh(t, f, r)
}

// testDeltaMatchesFresh is the central correctness property: for random
// partitions and random single-vertex moves, the O(1) incremental DeltaMove
// must equal the difference of from-scratch codelengths, and Apply must keep
// the incremental state equal to a freshly built one.
func testDeltaMatchesFresh(t *testing.T, f *Flow, r *rng.RNG) {
	t.Helper()
	n := f.G.N()
	const k = 5
	membership := make([]uint32, n)
	for i := range membership {
		membership[i] = uint32(r.Intn(k))
	}
	st, err := NewState(f, membership, k)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		v := r.Intn(n)
		newMod := uint32(r.Intn(k))
		old := st.Module(v)
		if old == newMod {
			if d := st.DeltaMove(f.View(v), newMod, 0, 0, 0, 0); d != 0 {
				t.Fatalf("no-op move has delta %g", d)
			}
			continue
		}
		outOld, inOld, outNew, inNew := moveFlows(f, st.Membership(), v, old, newMod)
		delta := st.DeltaMove(f.View(v), newMod, outOld, inOld, outNew, inNew)

		before := st.Codelength()
		after := make([]uint32, n)
		copy(after, st.Membership())
		after[v] = newMod
		fresh := freshCodelength(t, f, after, k)
		if math.Abs((before+delta)-fresh) > 1e-9 {
			t.Fatalf("trial %d: incremental L %.12f != fresh L %.12f (delta %g)",
				trial, before+delta, fresh, delta)
		}
		// Apply and verify full state consistency.
		st.Apply(f.View(v), newMod, outOld, inOld, outNew, inNew)
		if math.Abs(st.Codelength()-fresh) > 1e-9 {
			t.Fatalf("trial %d: applied L %.12f != fresh L %.12f", trial, st.Codelength(), fresh)
		}
	}
	// After many moves, Refresh must not change the value materially.
	before := st.Codelength()
	st.Refresh()
	if math.Abs(before-st.Codelength()) > 1e-9 {
		t.Fatalf("drift: incremental %g vs recomputed %g", before, st.Codelength())
	}
}

func TestStateAccessors(t *testing.T) {
	g := twoTriangles(t)
	f, _ := NewUndirectedFlow(g)
	st, err := NewState(f, []uint32{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if numModules(st) != 2 {
		t.Fatalf("NumModules = %d", numModules(st))
	}
	if st.size[0] != 3 || st.size[1] != 3 {
		t.Fatal("module sizes wrong")
	}
	if math.Abs(st.ModuleFlow(0)+st.ModuleFlow(1)-1) > 1e-12 {
		t.Fatal("module flows do not sum to 1")
	}
	// Exit of each triangle = bridge flow = 1/14 (bridge weight 1 of 2W=14).
	want := 1.0 / 14.0
	if math.Abs(st.ModuleExit(0)-want) > 1e-12 {
		t.Fatalf("ModuleExit(0) = %g, want %g", st.ModuleExit(0), want)
	}
}

func TestNewStateValidation(t *testing.T) {
	g := twoTriangles(t)
	f, _ := NewUndirectedFlow(g)
	if _, err := NewState(f, []uint32{0, 0}, 1); err == nil {
		t.Fatal("short membership accepted")
	}
	if _, err := NewState(f, []uint32{0, 0, 0, 9, 0, 0}, 2); err == nil {
		t.Fatal("out-of-range module accepted")
	}
}

func TestCompactMembership(t *testing.T) {
	m := []uint32{7, 3, 7, 9, 3}
	k := CompactMembership(m)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	want := []uint32{0, 1, 0, 2, 1}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("compacted = %v", m)
		}
	}
	if CompactMembership(nil) != 0 {
		t.Fatal("empty membership should compact to 0 modules")
	}
}

func TestContractPreservesCodelength(t *testing.T) {
	// The codelength of a partition on the base flow must equal the
	// codelength of the singleton partition on the contracted flow, once the
	// leaf node term is carried over. This is the invariant that makes the
	// multi-level scheme of Infomap exact.
	r := rng.New(77)
	g, planted, err := gen.SBM(gen.SBMParams{Sizes: []int{15, 15, 15, 15}, PIn: 0.4, POut: 0.05}, r)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewState(f, append([]uint32(nil), planted...), 4)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := f.Contract(planted, 4)
	if err != nil {
		t.Fatal(err)
	}
	singles := make([]uint32, sf.G.N())
	for i := range singles {
		singles[i] = uint32(i)
	}
	super, err := NewState(sf, singles, sf.G.N())
	if err != nil {
		t.Fatal(err)
	}
	super.OverrideNodeTerm(base.NodeTerm())
	if math.Abs(base.Codelength()-super.Codelength()) > 1e-9 {
		t.Fatalf("contraction changed codelength: %g vs %g", base.Codelength(), super.Codelength())
	}
}

func TestContractDirectedPreservesCodelength(t *testing.T) {
	r := rng.New(78)
	g, err := gen.RMAT(6, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	f := directedFlow(t, g, 0.85)
	n := g.N()
	membership := make([]uint32, n)
	for i := range membership {
		membership[i] = uint32(r.Intn(6))
	}
	mcopy := append([]uint32(nil), membership...)
	k := CompactMembership(mcopy)
	base, err := NewState(f, append([]uint32(nil), mcopy...), k)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := f.Contract(mcopy, k)
	if err != nil {
		t.Fatal(err)
	}
	singles := make([]uint32, sf.G.N())
	for i := range singles {
		singles[i] = uint32(i)
	}
	super, err := NewState(sf, singles, sf.G.N())
	if err != nil {
		t.Fatal(err)
	}
	super.OverrideNodeTerm(base.NodeTerm())
	if math.Abs(base.Codelength()-super.Codelength()) > 1e-9 {
		t.Fatalf("directed contraction changed codelength: %g vs %g",
			base.Codelength(), super.Codelength())
	}
}

func TestViewFields(t *testing.T) {
	g := twoTriangles(t)
	f, _ := NewUndirectedFlow(g)
	v := f.View(2) // degree-3 vertex
	if v.Node != 2 {
		t.Fatal("Node field wrong")
	}
	if math.Abs(v.Flow-3.0/14.0) > 1e-12 {
		t.Fatalf("Flow = %g, want 3/14", v.Flow)
	}
	if v.TeleOut != 0 {
		t.Fatal("undirected flow has teleportation")
	}
	if math.Abs(v.ArcOut-v.Flow) > 1e-12 {
		t.Fatal("ArcOut != Flow for undirected vertex")
	}
}

func TestUnrecordedFlowProperties(t *testing.T) {
	r := rng.New(201)
	g, err := gen.RMAT(8, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pagerank.DefaultConfig()
	res, err := pagerank.ComputeContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDirectedFlowUnrecorded(g, res.Rank, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// No teleportation mass; node flows sum to 1 and equal arc in-flows.
	sum := 0.0
	for v := 0; v < g.N(); v++ {
		if f.TeleOut[v] != 0 {
			t.Fatalf("vertex %d has teleport mass %g", v, f.TeleOut[v])
		}
		if math.Abs(f.NodeFlow[v]-f.ArcIn[v]) > 1e-12 {
			t.Fatalf("vertex %d: NodeFlow %g != ArcIn %g", v, f.NodeFlow[v], f.ArcIn[v])
		}
		sum += f.NodeFlow[v]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("unrecorded node flows sum to %g", sum)
	}
}

func TestDeltaMatchesFreshUnrecorded(t *testing.T) {
	// The asymmetric enter/exit bookkeeping must stay exact under the
	// unrecorded model, where module enter and exit genuinely differ.
	r := rng.New(202)
	g, err := gen.RMAT(6, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pagerank.DefaultConfig()
	res, err := pagerank.ComputeContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDirectedFlowUnrecorded(g, res.Rank, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	testDeltaMatchesFresh(t, f, r)
}

func TestUnrecordedEnterExitDiffer(t *testing.T) {
	// A path graph a->b->c: module {a} has exit but no enter.
	b := graph.NewBuilder(3, true)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	g := b.Build()
	cfg := pagerank.DefaultConfig()
	res, err := pagerank.ComputeContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDirectedFlowUnrecorded(g, res.Rank, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(f, []uint32{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModuleExit(0) <= st.ModuleEnter(0) {
		t.Fatalf("source module: exit %g should exceed enter %g",
			st.ModuleExit(0), st.ModuleEnter(0))
	}
	if st.ModuleEnter(2) <= st.ModuleExit(2) {
		t.Fatalf("sink module: enter %g should exceed exit %g",
			st.ModuleEnter(2), st.ModuleExit(2))
	}
}

// numModules returns the number of non-empty modules of s.
func numModules(s *State) int {
	n := 0
	for _, c := range s.size {
		if c > 0 {
			n++
		}
	}
	return n
}
