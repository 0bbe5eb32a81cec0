package infomap

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/trace"
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
	if res.Codelength > res.Flat.Codelength+1e-9 {
		t.Fatalf("hierarchy worsened codelength: %g vs flat %g",
			res.Codelength, res.Flat.Codelength)
	}
	if res.Depth < 3 {
		t.Fatalf("nested graph should produce depth >= 3 (got %d): %v", res.Depth, res)
	}
	if w := res.Work; w.Work.CandidatesEvaluated == 0 || w.Accum.Accumulates == 0 {
		t.Fatalf("submodule search work not counted: %+v", w)
	}
	// Every move the split and super searches commit is priced as one
	// applied move.
	if res.Moves == 0 || res.Work.Work.MovesApplied != uint64(res.Moves) {
		t.Fatalf("MovesApplied = %d, committed moves = %d; want equal and > 0",
			res.Work.Work.MovesApplied, res.Moves)
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

// rmatRows are directed gen.RMAT(scale, 16, rng.New(1)) graphs, read back
// from the edge list gengraph writes, under each teleportation model, with
// the two-level L of a 1-worker run.
var rmatRows = []struct {
	scale    int
	teleport Teleportation
	twoLevel float64
}{
	{10, TeleportRecorded, 8.480458526563},
	{10, TeleportUnrecorded, 7.897116508184},
	{12, TeleportRecorded, 10.127836403272},
	{12, TeleportUnrecorded, 9.451549353185},
}

func rmatGraph(t *testing.T, scale int) *graph.Graph {
	t.Helper()
	raw, err := gen.RMAT(scale, 16, rng.New(1))
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
	return g
}

// TestHierarchicalDepth2MatchesTwoLevel: the depth-2 tree of a flat
// partition prices exactly that partition's two-level L, on undirected
// flow and on directed flow under either teleportation model (where module
// enter and exit rates differ).
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
	if math.Abs(res.Codelength-res.Flat.Codelength) > 1e-12 {
		t.Fatalf("depth-2 tree L %g != two-level L %g", res.Codelength, res.Flat.Codelength)
	}

	for _, row := range rmatRows {
		g := rmatGraph(t, row.scale)
		opt := DefaultOptions()
		opt.Workers = 1
		opt.Teleport = row.teleport
		flat, flow, err := runContext(context.Background(), g, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(flat.Codelength-row.twoLevel) > 1e-9 {
			t.Fatalf("scale %d %v: two-level L %.12f, want %.12f", row.scale, row.teleport, flat.Codelength, row.twoLevel)
		}
		mem := append([]uint32(nil), flat.Membership...)
		k := mapeq.CompactMembership(mem)
		st, err := mapeq.NewState(flow, mem, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := HierCodelength(flow, twoLevelTree(st, mem, k)); math.Abs(got-flat.Codelength) > 1e-12 {
			t.Fatalf("scale %d %v: depth-2 tree L %.12f, two-level L %.12f", row.scale, row.teleport, got, flat.Codelength)
		}
	}
}

// TestHierarchicalFlatIsTheRun: HierResult.Flat is the flat run itself —
// the same partition and codelength RunContext finds — and a hierarchical
// run traces exactly one run span and one PageRank.
func TestHierarchicalFlatIsTheRun(t *testing.T) {
	g := rmatGraph(t, 10)
	opt := DefaultOptions()
	opt.Workers = 1
	flat, err := RunContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.New(obs.Config{Seed: opt.Seed})
	opt.Trace = tracer.Begin("test")
	res, err := RunHierarchicalContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace.End()
	if res.Flat.Codelength != flat.Codelength || !slices.Equal(res.Flat.Membership, flat.Membership) {
		t.Fatalf("Flat L %.12f, RunContext L %.12f (or memberships differ)", res.Flat.Codelength, flat.Codelength)
	}
	totals := tracer.Totals()
	if n := totals["run"].Count; n != 1 {
		t.Fatalf("%d run spans, want 1", n)
	}
	if n := totals[trace.KernelPageRank].Count; n != 1 {
		t.Fatalf("%d PageRank spans, want 1", n)
	}
}

// TestHierCodelengthFormula checks the tree evaluation against the
// two-level State on hand-sized graphs: two triangles (undirected), and a
// directed graph under unrecorded teleportation, where the tree must price
// the index codebook on enter rates and the module codebooks on exit rates.
func TestHierCodelengthFormula(t *testing.T) {
	b := graph.NewBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		_ = b.AddEdge(e[0], e[1], 1)
	}
	f, err := mapeq.NewUndirectedFlow(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	st, err := mapeq.NewState(f, []uint32{0, 0, 0, 1, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	root := &HierNode{Children: []*HierNode{
		{Vertices: []int{0, 1, 2}, Enter: st.ModuleEnter(0), Exit: st.ModuleExit(0), Flow: st.ModuleFlow(0)},
		{Vertices: []int{3, 4, 5}, Enter: st.ModuleEnter(1), Exit: st.ModuleExit(1), Flow: st.ModuleFlow(1)},
	}}
	if got, want := HierCodelength(f, root), st.Codelength(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tree L %g != state L %g", got, want)
	}
	// Degenerate tree: one-level entropy.
	if got, want := HierCodelength(f, &HierNode{}), mapeq.OneLevelCodelength(f); math.Abs(got-want) > 1e-12 {
		t.Fatalf("degenerate tree L %g != one-level %g", got, want)
	}

	// Directed, unrecorded: three 2-cycles in a one-way ring with a chord,
	// so no module's enter rate equals any module's exit rate.
	db := graph.NewBuilder(6, true)
	for _, e := range [][3]float64{{0, 1, 2}, {1, 0, 2}, {2, 3, 2}, {3, 2, 2}, {4, 5, 2}, {5, 4, 2},
		{1, 2, 1}, {3, 4, 1}, {5, 0, 1}, {0, 4, 0.5}} {
		_ = db.AddEdge(uint32(e[0]), uint32(e[1]), e[2])
	}
	opt := DefaultOptions()
	opt.Teleport = TeleportUnrecorded
	df, err := BaseFlow(context.Background(), db.Build(), opt)
	if err != nil {
		t.Fatal(err)
	}
	mem := []uint32{0, 0, 1, 1, 2, 2}
	dst, err := mapeq.NewState(df, mem, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dst.ModuleEnter(0) == dst.ModuleExit(0) {
		t.Fatal("enter and exit rates coincide; the case would not tell them apart")
	}
	if got, want := HierCodelength(df, twoLevelTree(dst, mem, 3)), dst.Codelength(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("directed unrecorded tree L %.15f != state L %.15f", got, want)
	}
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
	if res.Codelength > res.Flat.Codelength+1e-9 {
		t.Fatalf("hierarchy worsened L: %g vs %g", res.Codelength, res.Flat.Codelength)
	}
	if len(res.Flat.Membership) != g.N() {
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
	var sb strings.Builder
	if err := res.WriteTree(&sb, nil); err != nil {
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

// TestHierarchicalDirectedKeepsTwoLevelTree: on directed R-MAT input, under
// either teleportation model, the split and super-level search must not
// end above the flat partition it starts from. Before the search priced
// enter and exit rates and teleportation exactly, recorded scale 12 built a
// 10.92-bit tree over a 10.13-bit two-level partition, and every
// unrecorded tree priced above its own partition.
func TestHierarchicalDirectedKeepsTwoLevelTree(t *testing.T) {
	g := rmatGraph(t, 12)
	for _, tp := range []Teleportation{TeleportRecorded, TeleportUnrecorded} {
		opt := DefaultOptions()
		opt.Workers = 1
		opt.Teleport = tp
		res, err := RunHierarchical(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Codelength > res.Flat.Codelength+1e-12 {
			t.Fatalf("%v: hierarchical L %.12f worse than two-level %.12f", tp, res.Codelength, res.Flat.Codelength)
		}
		if res.Root.Size() != g.N() {
			t.Fatalf("%v: tree covers %d of %d vertices", tp, res.Root.Size(), g.N())
		}
	}
}

// TestHierarchicalNeverAboveTwoLevel: every split and super level is
// accepted only when it shortens the exact tree L, so the search tree never
// prices above the depth-2 tree of the flat partition.
func TestHierarchicalNeverAboveTwoLevel(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		opt  Options
	}
	var inputs []input
	for _, row := range rmatRows {
		opt := DefaultOptions()
		opt.Workers = 1
		opt.Teleport = row.teleport
		inputs = append(inputs, input{fmt.Sprintf("rmat%d/%v", row.scale, row.teleport), rmatGraph(t, row.scale), opt})
	}
	nested, _, _ := nestedGraph(t, 4, 3, 6)
	lfr, _, err := gen.LFR(gen.DefaultLFR(600, 0.2), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"nested", nested, DefaultOptions()}, input{"lfr", lfr, DefaultOptions()})
	for _, in := range inputs {
		res, err := RunHierarchical(in.g, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := BaseFlow(context.Background(), in.g, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		l := HierCodelength(flow, res.Root)
		if l != res.Codelength {
			t.Fatalf("%s: result L %.15f, tree prices %.15f", in.name, res.Codelength, l)
		}
		if l > res.Flat.Codelength+1e-12 {
			t.Fatalf("%s: search tree L %.15f above two-level L %.15f", in.name, l, res.Flat.Codelength)
		}
	}
}

// TestSubFlowExact: a State on a module's sub-flow gives every submodule the
// exit and enter rates the base flow's State gives the same vertex set.
func TestSubFlowExact(t *testing.T) {
	und, _, err := gen.SBM(gen.SBMParams{Sizes: []int{20, 20, 20}, PIn: 0.3, POut: 0.05}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := gen.RMAT(8, 8, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		tp   Teleportation
	}{{"undirected", und, TeleportRecorded}, {"recorded", dir, TeleportRecorded}, {"unrecorded", dir, TeleportUnrecorded}} {
		opt := DefaultOptions()
		opt.Teleport = c.tp
		flow, err := BaseFlow(context.Background(), c.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		teleTotal := flow.TeleTotal()
		r := rng.New(10)
		n := c.g.N()
		for trial := 0; trial < 20; trial++ {
			// Module 0 of a random 4-way partition is split 3 ways; the
			// global partition gives its parts the IDs 4, 5 and 6.
			mem := make([]uint32, n)
			var members []int
			for v := range mem {
				if mem[v] = uint32(r.Intn(4)); mem[v] == 0 {
					members = append(members, v)
				}
			}
			local := make([]uint32, len(members))
			for i, v := range members {
				local[i] = uint32(r.Intn(3))
				mem[v] = 4 + local[i]
			}
			sf, err := subFlow(flow, teleTotal, members)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := mapeq.NewState(sf, local, 3)
			if err != nil {
				t.Fatal(err)
			}
			glob, err := mapeq.NewState(flow, mem, 7)
			if err != nil {
				t.Fatal(err)
			}
			for j := uint32(0); j < 3; j++ {
				if d := math.Abs(sub.ModuleExit(j) - glob.ModuleExit(4+j)); d > 1e-12 {
					t.Fatalf("%s: submodule %d exit %.15f, global %.15f", c.name, j, sub.ModuleExit(j), glob.ModuleExit(4+j))
				}
				if d := math.Abs(sub.ModuleEnter(j) - glob.ModuleEnter(4+j)); d > 1e-12 {
					t.Fatalf("%s: submodule %d enter %.15f, global %.15f", c.name, j, sub.ModuleEnter(j), glob.ModuleEnter(4+j))
				}
			}
		}
	}
}
