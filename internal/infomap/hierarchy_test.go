package infomap

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/rng"
)

// nestedGraph builds a graph with two hierarchy levels: `super` groups, each
// containing `inner` cliques of size `s`. Cliques within a super group are
// linked densely (several edges each), super groups sparsely (one edge).
func nestedGraph(t *testing.T, super, inner, s int) (*graph.Graph, []uint32, []uint32) {
	t.Helper()
	n := super * inner * s
	b := graph.NewBuilder(n, false)
	topTruth := make([]uint32, n)
	leafTruth := make([]uint32, n)
	for g := 0; g < super; g++ {
		for c := 0; c < inner; c++ {
			base := (g*inner + c) * s
			for i := 0; i < s; i++ {
				topTruth[base+i] = uint32(g)
				leafTruth[base+i] = uint32(g*inner + c)
				for j := i + 1; j < s; j++ {
					if err := b.AddEdge(uint32(base+i), uint32(base+j), 4); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Dense links to the next clique within the group (weight 2 × s/2 links).
			next := (g*inner + (c+1)%inner) * s
			for i := 0; i < s/2+1; i++ {
				if err := b.AddEdge(uint32(base+i), uint32(next+i), 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		// One weak edge to the next super group.
		from := (g * inner) * s
		to := (((g + 1) % super) * inner) * s
		if err := b.AddEdge(uint32(from), uint32(to+1), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build(), topTruth, leafTruth
}

func TestHierarchicalOnNestedGraph(t *testing.T) {
	g, topTruth, leafTruth := nestedGraph(t, 4, 3, 6)
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Codelength > res.TwoLevelCodelength+1e-9 {
		t.Fatalf("hierarchy worsened codelength: %g vs flat %g",
			res.Codelength, res.TwoLevelCodelength)
	}
	if res.Depth < 3 {
		t.Fatalf("nested graph should produce depth >= 3 (got %d): %v", res.Depth, res)
	}
	if w := res.Work; w.Work.CandidatesEvaluated == 0 || w.Accum.Accumulates == 0 {
		t.Fatalf("submodule search work not counted: %+v", w)
	}
	// The deepest cut should align with the cliques, the top cut with the
	// super groups (up to which level the optimizer picked as "top").
	leaves := res.Leaves()
	if len(leaves) < 8 {
		t.Fatalf("only %d leaf modules; expected near the 12 planted cliques", len(leaves))
	}
	// Every leaf module must be pure with respect to the planted cliques.
	impure := 0
	for _, leaf := range leaves {
		first := leafTruth[leaf.Vertices[0]]
		for _, v := range leaf.Vertices {
			if leafTruth[v] != first {
				impure++
				break
			}
		}
	}
	if impure > 2 {
		t.Fatalf("%d of %d leaf modules mix planted cliques", impure, len(leaves))
	}
	_ = topTruth
}

func TestHierarchyTreeConsistency(t *testing.T) {
	g, _, _ := nestedGraph(t, 3, 3, 5)
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Leaves partition the vertex set exactly.
	seen := make([]bool, g.N())
	for _, leaf := range res.Leaves() {
		for _, v := range leaf.Vertices {
			if seen[v] {
				t.Fatalf("vertex %d in two leaves", v)
			}
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d missing from tree", v)
		}
	}
	// Flow conservation: root children flows sum to ~1.
	total := 0.0
	for _, c := range res.Root.Children {
		total += c.Flow
		if c.Exit < -1e-12 {
			t.Fatalf("negative exit %g", c.Exit)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("top-level flows sum to %g", total)
	}
	// Internal nodes' flow equals the sum of their children's.
	var walk func(n *HierNode) float64
	walk = func(n *HierNode) float64 {
		if n.IsLeaf() {
			return n.Flow
		}
		s := 0.0
		for _, c := range n.Children {
			s += walk(c)
		}
		if math.Abs(s-n.Flow) > 1e-9 {
			t.Fatalf("internal node flow %g != children sum %g", n.Flow, s)
		}
		return s
	}
	for _, c := range res.Root.Children {
		walk(c)
	}
	if res.Root.Size() != g.N() {
		t.Fatalf("tree covers %d of %d vertices", res.Root.Size(), g.N())
	}
}

// TestHierarchicalDepth2MatchesTwoLevel: when no splits are accepted the
// tree codelength must equal the flat two-level codelength exactly.
func TestHierarchicalDepth2MatchesTwoLevel(t *testing.T) {
	// Two triangles: no sub-structure to find inside 3-vertex modules.
	b := graph.NewBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		_ = b.AddEdge(e[0], e[1], 1)
	}
	g := b.Build()
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 2 {
		t.Fatalf("depth = %d, want 2 (root + leaf modules)", res.Depth)
	}
	if math.Abs(res.Codelength-res.TwoLevelCodelength) > 1e-9 {
		t.Fatalf("depth-2 tree L %g != two-level L %g", res.Codelength, res.TwoLevelCodelength)
	}
}

func TestHierCodelengthFormula(t *testing.T) {
	// Hand-check the tree evaluation against the two-level State on the
	// two-triangle graph with the natural partition.
	b := graph.NewBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		_ = b.AddEdge(e[0], e[1], 1)
	}
	g := b.Build()
	f, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mapeq.NewState(f, []uint32{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := &HierNode{Children: []*HierNode{
		{Vertices: []int{0, 1, 2}, Exit: st.ModuleExit(0), Flow: st.ModuleFlow(0)},
		{Vertices: []int{3, 4, 5}, Exit: st.ModuleExit(1), Flow: st.ModuleFlow(1)},
	}}
	if got, want := HierCodelength(f, root), st.Codelength(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tree L %g != state L %g", got, want)
	}
	// Degenerate tree: one-level entropy.
	if got, want := HierCodelength(f, &HierNode{}), mapeq.OneLevelCodelength(f); math.Abs(got-want) > 1e-12 {
		t.Fatalf("degenerate tree L %g != one-level %g", got, want)
	}
}

func TestFlattenLevel(t *testing.T) {
	g, topTruth, _ := nestedGraph(t, 4, 3, 6)
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	top := res.FlattenLevel(1)
	// Top cut: count distinct labels equals root children.
	labels := map[uint32]bool{}
	for _, m := range top {
		labels[m] = true
	}
	if len(labels) != len(res.Root.Children) {
		t.Fatalf("top cut has %d labels, root has %d children", len(labels), len(res.Root.Children))
	}
	// Top cut should agree strongly with the planted super groups when the
	// hierarchy's top level matches them; at minimum, same-group vertices
	// that share a planted clique always share a label.
	deep := res.FlattenLevel(100)
	deepLabels := map[uint32]bool{}
	for _, m := range deep {
		deepLabels[m] = true
	}
	if len(deepLabels) != len(res.Leaves()) {
		t.Fatalf("deep cut %d labels vs %d leaves", len(deepLabels), len(res.Leaves()))
	}
	_ = topTruth
}

func TestHierarchicalOnLFR(t *testing.T) {
	// Flat LFR communities: the hierarchy may split large modules but must
	// never worsen the codelength, and top membership stays the flat one.
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.2), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Codelength > res.TwoLevelCodelength+1e-9 {
		t.Fatalf("hierarchy worsened L: %g vs %g", res.Codelength, res.TwoLevelCodelength)
	}
	if len(res.TopMembership) != g.N() {
		t.Fatal("top membership length wrong")
	}
}

func TestHierarchicalEmptyAndTiny(t *testing.T) {
	res, err := RunHierarchical(graph.NewBuilder(0, false).Build(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Root == nil {
		t.Fatal("nil root for empty graph")
	}
	b := graph.NewBuilder(2, false)
	_ = b.AddEdge(0, 1, 1)
	if _, err := RunHierarchical(b.Build(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// TestHierExitsExact verifies every tree node's stored exit rate against a
// brute-force boundary-flow computation on the base flow.
func TestHierExitsExact(t *testing.T) {
	g, _, _ := nestedGraph(t, 4, 3, 6)
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	bruteExit := func(vertices map[int]bool) float64 {
		exit := 0.0
		for v := range vertices {
			lo, _ := g.OutRange(v)
			nb := g.OutNeighbors(v)
			for j := range nb {
				if !vertices[int(nb[j])] {
					exit += f.OutFlow[lo+j]
				}
			}
		}
		return exit
	}
	var collect func(n *HierNode) map[int]bool
	collect = func(n *HierNode) map[int]bool {
		set := map[int]bool{}
		if n.IsLeaf() {
			for _, v := range n.Vertices {
				set[v] = true
			}
		} else {
			for _, c := range n.Children {
				for v := range collect(c) {
					set[v] = true
				}
			}
		}
		return set
	}
	var walk func(n *HierNode)
	walk = func(n *HierNode) {
		set := collect(n)
		want := bruteExit(set)
		if math.Abs(n.Exit-want) > 1e-9 {
			t.Fatalf("node (size %d) exit %g, brute force %g", n.Size(), n.Exit, want)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range res.Root.Children {
		walk(c)
	}
}

func TestWriteTreeFormat(t *testing.T) {
	g, _, _ := nestedGraph(t, 3, 2, 5)
	res, err := RunHierarchical(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteTree(&sb, f.NodeFlow, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Two header lines + one line per vertex.
	if len(lines) != 2+g.N() {
		t.Fatalf("tree has %d lines, want %d", len(lines), 2+g.N())
	}
	if !strings.HasPrefix(lines[1], "# codelength") {
		t.Fatalf("missing codelength header: %q", lines[1])
	}
	// Every data line: "a:b:...:r flow "name" id"; every vertex appears once.
	re := regexp.MustCompile(`^(\d+:)+\d+ \d\.\d+ "\d+" (\d+)$`)
	seen := map[string]bool{}
	for _, l := range lines[2:] {
		m := re.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("malformed tree line: %q", l)
		}
		if seen[m[2]] {
			t.Fatalf("vertex %s appears twice", m[2])
		}
		seen[m[2]] = true
	}
	if len(seen) != g.N() {
		t.Fatalf("tree covers %d of %d vertices", len(seen), g.N())
	}
}

// TestHierarchicalDirectedKeepsTwoLevelTree: on directed input the split and
// super-level search prices submodules on a subFlow that counts a module's
// teleportation as exit, so it can build a tree worse than the flat
// partition it starts from. On this R-MAT instance (gengraph -kind rmat
// -rmat-scale 12, read back as directed) it built a 10.92-bit tree over a
// 10.13-bit two-level partition; the run must keep the depth-2 tree then.
func TestHierarchicalDirectedKeepsTwoLevelTree(t *testing.T) {
	raw, err := gen.RMAT(12, 16, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := raw.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.ReadEdgeList(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Workers = 1
	res, err := RunHierarchical(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codelength > res.TwoLevelCodelength+1e-9 {
		t.Fatalf("hierarchical L %.6f worse than two-level %.6f", res.Codelength, res.TwoLevelCodelength)
	}
	if res.Root.Size() != g.N() {
		t.Fatalf("tree covers %d of %d vertices", res.Root.Size(), g.N())
	}
}
