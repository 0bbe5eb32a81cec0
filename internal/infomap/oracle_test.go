package infomap

import (
	"context"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
)

// The reference map equation below works from the definitions and shares
// no code with mapeq: it takes the edges as they were added, derives every
// arc flow and teleportation term of a flow kind itself, and prices a tree
// by summing each vertex set's enter and exit flow straight from the arcs
// and from every ordered pair of vertices' teleportation. Only the PageRank
// vector of a directed graph is taken as given.

type refEdge struct {
	u, v int
	w    float64
}

// refFlow is a flow as the definitions state it: visit rates, arc flows
// between distinct vertices, and teleportation emitted and landing shares.
type refFlow struct {
	p, tele, land []float64
	arcs          []refEdge
}

// refFlowOf builds the flow of kind on n vertices from the given edges.
// rank is the PageRank vector of a directed kind (damping d); undirected
// ignores both.
func refFlowOf(n int, edges []refEdge, kind Teleportation, directed bool, rank []float64, d float64) refFlow {
	f := refFlow{p: make([]float64, n), tele: make([]float64, n), land: make([]float64, n)}
	for u := range f.land {
		f.land[u] = 1 / float64(n)
	}
	strength := make([]float64, n)
	for _, e := range edges {
		strength[e.u] += e.w
		if !directed && e.u != e.v {
			strength[e.v] += e.w
		}
	}
	if !directed {
		// Closed form: p ∝ strength, arc flow w/W in both directions.
		total := 0.0
		for _, s := range strength {
			total += s
		}
		for u := range f.p {
			f.p[u] = 1 / float64(n)
			if total > 0 {
				f.p[u] = strength[u] / total
			}
		}
		for _, e := range edges {
			if e.u != e.v && total > 0 {
				f.arcs = append(f.arcs, refEdge{e.u, e.v, e.w / total}, refEdge{e.v, e.u, e.w / total})
			}
		}
		return f
	}
	// A walker at u follows an arc with probability d in proportion to its
	// weight and teleports otherwise; a dangling vertex always teleports.
	for _, e := range edges {
		if e.u != e.v {
			f.arcs = append(f.arcs, refEdge{e.u, e.v, d * rank[e.u] * e.w / strength[e.u]})
		}
	}
	copy(f.p, rank)
	for u := range f.tele {
		f.tele[u] = (1 - d) * rank[u]
		if strength[u] == 0 {
			f.tele[u] = rank[u]
		}
	}
	if kind == TeleportRecorded {
		return f
	}
	// Unrecorded: only arc steps are coded. A vertex's rate is the arc flow
	// into it, and the arc flows are renormalized to sum to 1.
	total := 0.0
	for u := range f.tele {
		f.tele[u], f.p[u] = 0, 0
	}
	for _, a := range f.arcs {
		f.p[a.v] += a.w
		total += a.w
	}
	for u := range f.p {
		if total > 0 {
			f.p[u] /= total
		} else {
			f.p[u] = 1 / float64(n)
		}
	}
	for i := range f.arcs {
		f.arcs[i].w /= total
	}
	return f
}

// rates returns the flow entering and leaving the vertex set in.
func (f refFlow) rates(in []bool) (enter, exit float64) {
	for _, a := range f.arcs {
		switch {
		case in[a.u] && !in[a.v]:
			exit += a.w
		case !in[a.u] && in[a.v]:
			enter += a.w
		}
	}
	for u := range f.p {
		for v := range f.p {
			if in[u] && !in[v] {
				exit += f.tele[u] * f.land[v]
			} else if !in[u] && in[v] {
				enter += f.tele[u] * f.land[v]
			}
		}
	}
	return enter, exit
}

// mark sets in[u] for every vertex u under n.
func mark(n *HierNode, in []bool) {
	for _, u := range n.Vertices {
		in[u] = true
	}
	for _, c := range n.Children {
		mark(c, in)
	}
}

func refPlogp(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log2(x)
}

// codelength prices the tree's structure (its Children and Vertices; the
// stored rates are ignored). Each module's codebook codes its exit and
// either its submodules' entries or its members' visits; the root has no
// exit. A root without children is one module holding every vertex.
func (f refFlow) codelength(root *HierNode) float64 {
	if len(root.Children) == 0 {
		all := &HierNode{}
		for u := range f.p {
			all.Vertices = append(all.Vertices, u)
		}
		root = all
	}
	var price func(n *HierNode, exit float64) float64
	price = func(n *HierNode, exit float64) float64 {
		var used []float64
		l := 0.0
		if n.IsLeaf() {
			for _, u := range n.Vertices {
				used = append(used, f.p[u])
			}
		}
		for _, c := range n.Children {
			in := make([]bool, len(f.p))
			mark(c, in)
			enter, cexit := f.rates(in)
			used = append(used, enter)
			l += price(c, cexit)
		}
		total := exit
		for _, x := range used {
			total += x
			l -= refPlogp(x)
		}
		return l + refPlogp(total) - refPlogp(exit)
	}
	return price(root, 0)
}

// oracleCase is one random small graph with its flow kind.
type oracleCase struct {
	g        *graph.Graph
	edges    []refEdge
	directed bool
	kind     Teleportation
}

// newOracleCase draws a graph on n vertices with m random edges, self-loops
// and repeated edges included.
func newOracleCase(t testing.TB, r *rng.RNG, n, m int, directed bool, kind Teleportation) oracleCase {
	t.Helper()
	b := graph.NewBuilder(n, directed)
	c := oracleCase{directed: directed, kind: kind}
	for i := 0; i < m; i++ {
		e := refEdge{r.Intn(n), r.Intn(n), 0.1 + 2*r.Float64()}
		if err := b.AddEdge(uint32(e.u), uint32(e.v), e.w); err != nil {
			t.Fatal(err)
		}
		c.edges = append(c.edges, e)
	}
	c.g = b.Build()
	return c
}

// flows returns the production base flow and the reference flow of c.
func (c oracleCase) flows(t testing.TB) (*mapeq.Flow, refFlow) {
	t.Helper()
	opt := DefaultOptions()
	opt.Workers = 1
	opt.Teleport = c.kind
	flow, err := BaseFlow(context.Background(), c.g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var rank []float64
	if c.directed {
		cfg := pagerank.DefaultConfig()
		cfg.Damping = opt.Damping
		pr, err := pagerank.Compute(c.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rank = pr.Rank
	}
	return flow, refFlowOf(c.g.N(), c.edges, c.kind, c.directed, rank, opt.Damping)
}

// randomTree grows a tree over flow from the partition mem the way
// RunHierarchicalContext does, with random choices in place of the search:
// the depth-2 tree, then random splits whose rates come from States on
// subFlow, then maybe one super level whose rates come from a State on the
// contracted flow.
func randomTree(t testing.TB, flow *mapeq.Flow, st *mapeq.State, mem []uint32, k int, r *rng.RNG) *HierNode {
	t.Helper()
	teleTotal := flow.TeleTotal()
	var split func(n *HierNode, depth int)
	split = func(n *HierNode, depth int) {
		if depth == 0 || len(n.Vertices) < 2 || r.Intn(3) == 0 {
			return
		}
		sf, err := subFlow(flow, teleTotal, n.Vertices)
		if err != nil {
			t.Fatal(err)
		}
		local := make([]uint32, len(n.Vertices))
		for i := range local {
			local[i] = uint32(r.Intn(3))
		}
		kk := mapeq.CompactMembership(local)
		if kk < 2 {
			return
		}
		ist, err := mapeq.NewState(sf, local, kk)
		if err != nil {
			t.Fatal(err)
		}
		n.Children = make([]*HierNode, kk)
		for m := range n.Children {
			n.Children[m] = &HierNode{
				Enter: ist.ModuleEnter(uint32(m)),
				Exit:  ist.ModuleExit(uint32(m)),
				Flow:  ist.ModuleFlow(uint32(m)),
			}
		}
		for i, m := range local {
			n.Children[m].Vertices = append(n.Children[m].Vertices, n.Vertices[i])
		}
		n.Vertices = nil
		for _, c := range n.Children {
			split(c, depth-1)
		}
	}
	root := twoLevelTree(st, mem, k)
	for _, c := range root.Children {
		split(c, 2)
	}
	if k < 3 || r.Intn(2) == 0 {
		return root
	}
	cf, err := flow.Contract(mem, k)
	if err != nil {
		t.Fatal(err)
	}
	grouping := make([]uint32, k)
	for i := range grouping {
		grouping[i] = uint32(r.Intn(2))
	}
	ks := mapeq.CompactMembership(grouping)
	sst, err := mapeq.NewState(cf, grouping, ks)
	if err != nil {
		t.Fatal(err)
	}
	supers := make([]*HierNode, ks)
	for s := range supers {
		supers[s] = &HierNode{Enter: sst.ModuleEnter(uint32(s)), Exit: sst.ModuleExit(uint32(s))}
	}
	for i, c := range root.Children {
		supers[grouping[i]].Children = append(supers[grouping[i]].Children, c)
		supers[grouping[i]].Flow += c.Flow
	}
	root.Children = supers
	return root
}

// checkOracle prices one random partition of c, its depth-2 tree and a
// random deeper tree, and the one-level code, against the reference.
func checkOracle(t *testing.T, c oracleCase, r *rng.RNG) {
	t.Helper()
	const tol = 1e-12
	flow, ref := c.flows(t)
	n := c.g.N()
	mem := make([]uint32, n)
	parts := 1 + r.Intn(n)
	for u := range mem {
		mem[u] = uint32(r.Intn(parts))
	}
	k := mapeq.CompactMembership(mem)
	st, err := mapeq.NewState(flow, mem, k)
	if err != nil {
		t.Fatal(err)
	}
	flat := twoLevelTree(st, mem, k)
	want := ref.codelength(flat)
	if got := st.Codelength(); math.Abs(got-want) > tol {
		t.Fatalf("State.Codelength %.15f, reference %.15f", got, want)
	}
	if got := HierCodelength(flow, flat); math.Abs(got-want) > tol {
		t.Fatalf("depth-2 tree L %.15f, reference %.15f", got, want)
	}
	tree := randomTree(t, flow, st, mem, k, r)
	if got, want := HierCodelength(flow, tree), ref.codelength(tree); math.Abs(got-want) > tol {
		t.Fatalf("depth-%d tree L %.15f, reference %.15f", tree.Depth(), got, want)
	}
	one := ref.codelength(&HierNode{})
	if got := mapeq.OneLevelCodelength(flow); math.Abs(got-one) > tol {
		t.Fatalf("OneLevelCodelength %.15f, reference %.15f", got, one)
	}
	if got := HierCodelength(flow, &HierNode{}); math.Abs(got-one) > tol {
		t.Fatalf("degenerate tree L %.15f, reference %.15f", got, one)
	}
}

// oracleKinds are the flow kinds the reference covers.
var oracleKinds = []struct {
	name     string
	directed bool
	kind     Teleportation
}{
	{"undirected", false, TeleportRecorded},
	{"recorded", true, TeleportRecorded},
	{"unrecorded", true, TeleportUnrecorded},
}

// TestMapEquationOracle holds State.Codelength, HierCodelength (depth-2
// trees and random deeper trees) and OneLevelCodelength to the reference on
// random small graphs of every flow kind.
func TestMapEquationOracle(t *testing.T) {
	for _, fk := range oracleKinds {
		t.Run(fk.name, func(t *testing.T) {
			r := rng.New(91)
			for trial := 0; trial < 60; trial++ {
				n := 1 + r.Intn(30)
				c := newOracleCase(t, r, n, r.Intn(3*n+1), fk.directed, fk.kind)
				checkOracle(t, c, r)
			}
		})
	}
}

// FuzzMapEquationOracle is TestMapEquationOracle over fuzzed graph shapes.
func FuzzMapEquationOracle(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(30), uint8(0))
	f.Add(uint64(2), uint8(20), uint8(60), uint8(1))
	f.Add(uint64(3), uint8(20), uint8(60), uint8(2))
	f.Add(uint64(4), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n, m, kind uint8) {
		fk := oracleKinds[int(kind)%len(oracleKinds)]
		r := rng.New(seed)
		c := newOracleCase(t, r, 1+int(n)%40, int(m), fk.directed, fk.kind)
		checkOracle(t, c, r)
	})
}

// TestMapEquationOracleRMAT prices the flat partition of the scale-10
// R-MAT rows, its depth-2 tree and the hierarchical search's tree against
// the reference.
func TestMapEquationOracleRMAT(t *testing.T) {
	const tol = 1e-12
	for _, row := range rmatRows {
		if row.scale != 10 {
			continue
		}
		g := rmatGraph(t, row.scale)
		c := oracleCase{g: g, directed: true, kind: row.teleport}
		for u := 0; u < g.N(); u++ {
			ws := g.OutWeights(u)
			for i, v := range g.OutNeighbors(u) {
				c.edges = append(c.edges, refEdge{u, int(v), ws[i]})
			}
		}
		flow, ref := c.flows(t)
		opt := DefaultOptions()
		opt.Workers = 1
		opt.Teleport = row.teleport
		res, err := RunHierarchical(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		mem := append([]uint32(nil), res.Flat.Membership...)
		k := mapeq.CompactMembership(mem)
		st, err := mapeq.NewState(flow, mem, k)
		if err != nil {
			t.Fatal(err)
		}
		flat := twoLevelTree(st, mem, k)
		want := ref.codelength(flat)
		for _, got := range []struct {
			name string
			l    float64
		}{
			{"two-level L", res.Flat.Codelength},
			{"State.Codelength", st.Codelength()},
			{"depth-2 tree L", HierCodelength(flow, flat)},
		} {
			if math.Abs(got.l-want) > tol {
				t.Fatalf("scale %d %v: %s %.15f, reference %.15f", row.scale, row.teleport, got.name, got.l, want)
			}
		}
		if got, want := res.Codelength, ref.codelength(res.Root); math.Abs(got-want) > tol {
			t.Fatalf("scale %d %v: hierarchical L %.15f, reference %.15f", row.scale, row.teleport, got, want)
		}
	}
}
