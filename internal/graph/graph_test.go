package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/asamap/asamap/internal/rng"
)

func mustBuild(t *testing.T, n int, directed bool, edges [][3]float64) *Graph {
	t.Helper()
	b := NewBuilder(n, directed)
	for _, e := range edges {
		if err := b.AddEdge(uint32(e[0]), uint32(e[1]), e[2]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, false).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.DegreeHistogram()) != 1 {
		t.Fatal("empty graph histogram should have length 1")
	}
}

func TestUndirectedMirroring(t *testing.T) {
	g := mustBuild(t, 3, false, [][3]float64{{0, 1, 2.0}, {1, 2, 3.0}})
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4 (two mirrored edges)", g.M())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	w, ok := g.ArcWeight(1, 0)
	if !ok || w != 2.0 {
		t.Fatalf("mirror arc 1->0: (%g,%v)", w, ok)
	}
	if g.TotalWeight() != 10.0 {
		t.Fatalf("TotalWeight = %g, want 10", g.TotalWeight())
	}
}

func TestDirectedNoMirroring(t *testing.T) {
	g := mustBuild(t, 3, true, [][3]float64{{0, 1, 1}, {1, 2, 1}})
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if g.HasArc(1, 0) {
		t.Fatal("directed graph grew a mirror arc")
	}
	if g.InDegree(2) != 1 || g.InDegree(0) != 0 {
		t.Fatalf("in-degrees wrong: in(2)=%d in(0)=%d", g.InDegree(2), g.InDegree(0))
	}
}

func TestDuplicateEdgesMerge(t *testing.T) {
	g := mustBuild(t, 2, true, [][3]float64{{0, 1, 1}, {0, 1, 2.5}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 after merge", g.M())
	}
	w, _ := g.ArcWeight(0, 1)
	if w != 3.5 {
		t.Fatalf("merged weight = %g, want 3.5", w)
	}
}

func TestSelfLoops(t *testing.T) {
	g := mustBuild(t, 2, false, [][3]float64{{0, 0, 4}, {0, 1, 1}})
	if g.SelfLoopWeight() != 4 {
		t.Fatalf("SelfLoopWeight = %g, want 4", g.SelfLoopWeight())
	}
	// Undirected self-loop stored once.
	if g.OutDegree(0) != 2 {
		t.Fatalf("OutDegree(0) = %d, want 2", g.OutDegree(0))
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	b := NewBuilder(2, false)
	if err := b.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Fatal("zero-weight edge accepted")
	}
	if err := b.AddEdge(0, 1, -1); err == nil {
		t.Fatal("negative-weight edge accepted")
	}
}

func TestStrengths(t *testing.T) {
	g := mustBuild(t, 3, true, [][3]float64{{0, 1, 2}, {0, 2, 3}, {1, 0, 5}})
	if s := g.OutStrength(0); s != 5 {
		t.Fatalf("OutStrength(0) = %g, want 5", s)
	}
}

func TestDegreeHistogramAndCDF(t *testing.T) {
	// Star graph: center degree 4, leaves degree 1.
	g := mustBuild(t, 5, false, [][3]float64{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}})
	h := g.DegreeHistogram()
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("histogram wrong: %v", h)
	}
	cdf := g.DegreeCDF([]int{0, 1, 3, 4})
	want := []float64{0, 0.8, 0.8, 1.0}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("CDF[%d] = %g, want %g (full: %v)", i, cdf[i], want[i], cdf)
		}
	}
}

func TestContractUndirected(t *testing.T) {
	// Two triangles joined by one edge; contract each triangle to a module.
	edges := [][3]float64{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
		{2, 3, 1},
	}
	g := mustBuild(t, 6, false, edges)
	membership := []uint32{0, 0, 0, 1, 1, 1}
	sg, err := g.Contract(membership, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sg.N() != 2 {
		t.Fatalf("contracted N = %d, want 2", sg.N())
	}
	// Each triangle has 3 internal edges -> self-loop weight 3.
	w, ok := sg.ArcWeight(0, 0)
	if !ok || w != 3 {
		t.Fatalf("module 0 self-loop = (%g,%v), want 3", w, ok)
	}
	w, ok = sg.ArcWeight(0, 1)
	if !ok || w != 1 {
		t.Fatalf("inter-module edge = (%g,%v), want 1", w, ok)
	}
	// Total edge weight is conserved: 3+3 self + 1 bridge mirrored twice.
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractDirected(t *testing.T) {
	g := mustBuild(t, 4, true, [][3]float64{{0, 1, 1}, {1, 0, 2}, {1, 2, 1}, {2, 3, 1}, {3, 2, 1}})
	sg, err := g.Contract([]uint32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sg.ArcWeight(0, 0)
	if w != 3 { // arcs 0->1 (1) and 1->0 (2)
		t.Fatalf("module 0 self-loop = %g, want 3", w)
	}
	w, _ = sg.ArcWeight(0, 1)
	if w != 1 {
		t.Fatalf("inter arc 0->1 = %g, want 1", w)
	}
	if sg.TotalWeight() != g.TotalWeight() {
		t.Fatalf("contraction lost weight: %g vs %g", sg.TotalWeight(), g.TotalWeight())
	}
}

func TestContractErrors(t *testing.T) {
	g := mustBuild(t, 2, false, [][3]float64{{0, 1, 1}})
	if _, err := g.Contract([]uint32{0}, 1); err == nil {
		t.Fatal("short membership accepted")
	}
	if _, err := g.Contract([]uint32{0, 7}, 2); err == nil {
		t.Fatal("out-of-range module accepted")
	}
}

func TestContractPreservesTotalWeightUndirected(t *testing.T) {
	r := rng.New(404)
	n := 60
	b := NewBuilder(n, false)
	for i := 0; i < 300; i++ {
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		_ = b.AddEdge(u, v, 1+r.Float64())
	}
	g := b.Build()
	mem := make([]uint32, n)
	for i := range mem {
		mem[i] = uint32(r.Intn(7))
	}
	sg, err := g.Contract(mem, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Stored total weight differs because intra-module non-loop mirrored arcs
	// (w counted twice in g) contract to a single self-loop (w once). Compare
	// logical totals instead: sum over unordered pairs.
	logical := func(gg *Graph) float64 {
		s := 0.0
		for u := 0; u < gg.N(); u++ {
			nb, ws := gg.OutNeighbors(u), gg.OutWeights(u)
			for i, v := range nb {
				if int(v) >= u {
					s += ws[i]
				}
			}
		}
		return s
	}
	a, bb := logical(g), logical(sg)
	if diff := a - bb; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("logical weight not conserved: %g vs %g", a, bb)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := mustBuild(t, 3, true, [][3]float64{{0, 1, 1.5}, {2, 0, 2.5}})
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("Edges() returned %d arcs", len(es))
	}
	b := NewBuilder(3, true)
	for _, e := range es {
		_ = b.AddEdge(e.From, e.To, e.Weight)
	}
	g2 := b.Build()
	if g2.TotalWeight() != g.TotalWeight() || g2.M() != g.M() {
		t.Fatal("round trip through Edges() changed the graph")
	}
}

func TestReadEdgeList(t *testing.T) {
	input := `# a comment
% another comment style
10 20
20 30 2.5

30 10
`
	g, labels, err := ReadEdgeList(strings.NewReader(input), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if labels[0] != 10 || labels[1] != 20 || labels[2] != 30 {
		t.Fatalf("labels = %v", labels)
	}
	w, ok := g.ArcWeight(1, 2)
	if !ok || w != 2.5 {
		t.Fatalf("weighted edge lost: (%g,%v)", w, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",           // too few fields
		"a b\n",         // bad source
		"1 b\n",         // bad target
		"1 2 x\n",       // bad weight
		"1 2 0\n",       // zero weight
		"1 2 -3\n",      // negative weight
		"1 99999999x\n", // bad target numeral
	}
	for _, c := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(c), true); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := mustBuild(t, 4, false, [][3]float64{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {0, 3, 1}})
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.TotalWeight() != g.TotalWeight() {
		t.Fatalf("round trip mismatch: N %d/%d M %d/%d W %g/%g",
			g.N(), g2.N(), g.M(), g2.M(), g.TotalWeight(), g2.TotalWeight())
	}
}

func TestQuickBuilderInvariants(t *testing.T) {
	// Property: for any random edge set, the built graph validates and
	// conserves total weight.
	r := rng.New(77)
	f := func(seed uint32, nEdges uint8) bool {
		n := 20
		b := NewBuilder(n, seed%2 == 0)
		total := 0.0
		directed := seed%2 == 0
		for i := 0; i < int(nEdges); i++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			w := 0.5 + r.Float64()
			_ = b.AddEdge(u, v, w)
			total += w
			if !directed && u != v {
				total += w
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		diff := g.TotalWeight() - total
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInCSRSortedBySource(t *testing.T) {
	g := mustBuild(t, 5, true, [][3]float64{{4, 2, 1}, {1, 2, 1}, {3, 2, 1}, {0, 2, 1}})
	in := g.InNeighbors(2)
	for i := 1; i < len(in); i++ {
		if in[i-1] >= in[i] {
			t.Fatalf("in-row not sorted: %v", in)
		}
	}
}
