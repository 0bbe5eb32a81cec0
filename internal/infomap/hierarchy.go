package infomap

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
)

// The hierarchical map equation (Rosvall & Bergstrom 2011) generalizes the
// two-level objective the paper's HyPC-Map optimizes: modules may contain
// submodules, each level paying an index codebook. This file implements the
// standard recursive heuristic — build a two-level partition, then try to
// split each module into submodules whenever that shortens the total
// hierarchical codelength — as the repository's extension of the paper's
// system (listed as future-work scope in DESIGN.md).

// HierNode is one module in the hierarchy tree. Leaf modules carry their
// member vertices; internal modules carry children.
type HierNode struct {
	Children []*HierNode
	Vertices []int   // leaf members (nil for internal nodes)
	Exit     float64 // module enter/exit rate q
	Flow     float64 // Σ member visit rates
}

// IsLeaf reports whether the node is a leaf module.
func (n *HierNode) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns the number of leaf vertices under the node.
func (n *HierNode) Size() int {
	if n.IsLeaf() {
		return len(n.Vertices)
	}
	total := 0
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Depth returns the height of the subtree (a leaf has depth 1).
func (n *HierNode) Depth() int {
	if n.IsLeaf() {
		return 1
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// HierResult is the outcome of RunHierarchical.
type HierResult struct {
	Root               *HierNode
	Codelength         float64 // hierarchical L in bits
	TwoLevelCodelength float64 // the flat partition's L, for comparison
	TopMembership      []uint32
	Depth              int // tree height including the root
	Modules            int // total module count across all levels
	// Work is the scan work and accumulator events of the submodule and
	// super-level searches (the flat run's are not included).
	Work WorkerStats
}

// RunHierarchical detects a hierarchy of communities: it first runs the
// two-level algorithm (with the configured accumulator backend), then
// recursively splits each module into submodules while the hierarchical
// codelength improves.
func RunHierarchical(g *graph.Graph, opt Options) (*HierResult, error) {
	// Documented non-cancellable convenience entry point; callers who need
	// preemption use RunHierarchicalContext.
	return RunHierarchicalContext(context.Background(), g, opt)
}

// RunHierarchicalContext is RunHierarchical under a context; the flat run
// and PageRank observe cancellation at their usual boundaries.
func RunHierarchicalContext(ctx context.Context, g *graph.Graph, opt Options) (*HierResult, error) {
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	flat, err := RunContext(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	// Rebuild the base flow (Run does not expose it).
	var flow *mapeq.Flow
	if g.Directed() {
		cfg := pagerank.DefaultConfig()
		cfg.Damping = opt.Damping
		cfg.Workers = opt.Workers
		pr, err := pagerank.ComputeContext(ctx, g, cfg)
		if err != nil {
			return nil, err
		}
		if opt.Teleport == TeleportUnrecorded {
			flow, err = mapeq.NewDirectedFlowUnrecorded(g, pr.Rank, opt.Damping)
		} else {
			flow, err = mapeq.NewDirectedFlow(g, pr.Rank, opt.Damping)
		}
		if err != nil {
			return nil, err
		}
	} else {
		flow, err = mapeq.NewUndirectedFlow(g)
		if err != nil {
			return nil, err
		}
	}
	res := &HierResult{
		TwoLevelCodelength: flat.Codelength,
		TopMembership:      flat.Membership,
	}
	if g.N() == 0 {
		res.Root = &HierNode{}
		return res, nil
	}

	mem := append([]uint32(nil), flat.Membership...)
	k := mapeq.CompactMembership(mem)
	st, err := mapeq.NewState(flow, mem, k)
	if err != nil {
		return nil, err
	}
	groups := make([][]int, k)
	for v, m := range mem {
		groups[m] = append(groups[m], v)
	}
	// twoLevel builds the depth-2 tree of the flat partition: the root over
	// one leaf module per top module.
	twoLevel := func() *HierNode {
		root := &HierNode{}
		for m, members := range groups {
			root.Children = append(root.Children, &HierNode{
				Vertices: members,
				Exit:     st.ModuleExit(uint32(m)),
				Flow:     st.ModuleFlow(uint32(m)),
			})
		}
		return root
	}
	// One Scanner, on the run's own backend, prices every submodule and
	// super-level move.
	sc, err := NewScanner(opt, g.MaxDegree())
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)
	root := twoLevel()
	// Try to split each top module recursively (fine structure below)...
	for _, child := range root.Children {
		if err := splitRecursively(flow, child, sc, opt, r, opt.MaxLevels); err != nil {
			return nil, err
		}
	}
	// ...and to agglomerate top modules under super modules (coarse
	// structure above), while either direction shortens the code.
	if err := addSuperLevels(flow, root, mem, sc, opt, r); err != nil {
		return nil, err
	}
	res.Work = sc.Stats()

	res.Root = root
	res.Codelength = HierCodelength(flow, root)
	// The splits and super levels are priced on approximate flows (on
	// directed input subFlow counts a module's teleportation as exit), so
	// the tree they build can price worse than the flat partition it grew
	// from. Like the flat run's one-level fallback, keep the depth-2 tree
	// then.
	t := twoLevel()
	if l := HierCodelength(flow, t); l < res.Codelength {
		res.Root, res.Codelength = t, l
	}
	res.Depth = res.Root.Depth()
	res.Modules = countModules(res.Root) - 1 // exclude the root itself
	return res, nil
}

func countModules(n *HierNode) int {
	total := 1
	for _, c := range n.Children {
		total += countModules(c)
	}
	return total
}

// splitRecursively attempts to split a leaf module into submodules and, when
// accepted, recurses into the new children.
func splitRecursively(flow *mapeq.Flow, node *HierNode, sc *Scanner, opt Options, r *rng.RNG, depthBudget int) error {
	if depthBudget <= 0 || !node.IsLeaf() || len(node.Vertices) < 4 {
		return nil
	}
	sf, err := subFlow(flow, node.Vertices)
	if err != nil {
		return err
	}
	membership, innerState, err := optimizeSubmodule(sf, node.Exit, sc, opt, r)
	if err != nil {
		return err
	}
	// Keep the optimizer's module IDs: CompactMembership renumbers, and the
	// State's per-module statistics are indexed by the original IDs.
	original := append([]uint32(nil), membership...)
	k := mapeq.CompactMembership(membership)
	if k < 2 {
		return nil
	}
	// Cost of keeping the module flat: its leaf codebook. Cost of the split:
	// the module's index codebook plus the children's leaf codebooks. The
	// shared −plogp(q) term cancels in the comparison.
	leafCost := mapeq.Plogp(node.Exit+node.Flow) - sf.NodeTerm()
	splitCost := innerState.Codelength()
	if splitCost >= leafCost-opt.MinImprovement {
		return nil
	}
	// Accept: materialize children (in member order for determinism).
	children := make([]*HierNode, k)
	for local, m := range membership {
		if children[m] == nil {
			children[m] = &HierNode{
				Exit: innerState.ModuleExit(original[local]),
				Flow: innerState.ModuleFlow(original[local]),
			}
		}
		children[m].Vertices = append(children[m].Vertices, node.Vertices[local])
	}
	node.Children = children
	node.Vertices = nil
	for _, c := range children {
		if err := splitRecursively(flow, c, sc, opt, r, depthBudget-1); err != nil {
			return err
		}
	}
	return nil
}

// addSuperLevels repeatedly tries to group the root's children under a new
// level of super modules. Choosing the grouping is *exactly* a two-level map
// equation problem on the contracted flow with each module-node's visit rate
// replaced by the module's enter rate q_c: the resulting L equals
//
//	plogp(Σ_s q_s) − 2Σ_s plogp(q_s) + Σ_s plogp(q_s + Σ_{c∈s} q_c) − Σ_c plogp(q_c),
//
// which is the root index codebook plus the super-module codebooks of the
// three-level map equation. A grouping is accepted when that beats the
// current root index codebook, and the procedure repeats on the new top
// level until no further coarsening pays.
func addSuperLevels(flow *mapeq.Flow, root *HierNode, topMembership []uint32, sc *Scanner, opt Options, r *rng.RNG) error {
	mem := append([]uint32(nil), topMembership...)
	curFlow := flow
	for level := 0; level < 10; level++ {
		k := len(root.Children)
		if k <= 2 {
			return nil
		}
		cf, err := curFlow.Contract(mem, k)
		if err != nil {
			return err
		}
		// The module-as-node visit rate is the module's enter rate.
		for i, c := range root.Children {
			cf.NodeFlow[i] = c.Exit
		}
		grouping, st, err := optimizeSubmodule(cf, 0, sc, opt, r)
		if err != nil {
			return err
		}
		originalIDs := append([]uint32(nil), grouping...)
		ks := mapeq.CompactMembership(grouping)
		if ks < 2 || ks >= k {
			return nil
		}
		currentCost := 0.0
		sumQ := 0.0
		for _, c := range root.Children {
			sumQ += c.Exit
			currentCost -= mapeq.Plogp(c.Exit)
		}
		currentCost += mapeq.Plogp(sumQ)
		proposedCost := st.Codelength()
		if proposedCost >= currentCost-opt.MinImprovement {
			return nil
		}
		// Restructure: wrap the children into super modules.
		supers := make([]*HierNode, ks)
		for i, c := range root.Children {
			s := grouping[i]
			if supers[s] == nil {
				supers[s] = &HierNode{Exit: st.ModuleExit(originalIDs[i])}
			}
			supers[s].Children = append(supers[s].Children, c)
			supers[s].Flow += c.Flow
		}
		root.Children = supers
		// Prepare the next round: the new top partition over the previous
		// contracted nodes.
		// (cf.NodeFlow holds enter rates, but the next round overrides
		// NodeFlow again, and Contract only consumes arc flows, so no
		// restoration is needed.)
		mem = grouping
		curFlow = cf
	}
	return nil
}

// subFlow builds the flow restricted to a module's members: internal arcs
// keep their global flows; flow leaving the member set (boundary arcs plus
// any teleportation) becomes pure exit mass (TeleOut with zero landing
// share), so every submodule's exit rate stays globally exact. For directed
// graphs the members' own teleportation is treated entirely as exit — a
// small approximation for the fraction that would land back inside.
func subFlow(f *mapeq.Flow, members []int) (*mapeq.Flow, error) {
	local := make(map[int]int, len(members))
	for i, v := range members {
		local[v] = i
	}
	g := f.G
	b := graph.NewBuilder(len(members), true)
	external := make([]float64, len(members))
	extIn := make([]float64, len(members))
	for i, v := range members {
		lo, _ := g.OutRange(v)
		nb := g.OutNeighbors(v)
		for j := range nb {
			fl := f.OutFlow[lo+j]
			if fl <= 0 {
				continue
			}
			if t, ok := local[int(nb[j])]; ok {
				if err := b.AddEdge(uint32(i), uint32(t), fl); err != nil {
					return nil, err
				}
			} else {
				external[i] += fl
			}
		}
		external[i] += f.TeleOut[v]
		ilo, _ := g.InRange(v)
		inn := g.InNeighbors(v)
		for j := range inn {
			fl := f.InFlow[ilo+j]
			if fl <= 0 {
				continue
			}
			if _, ok := local[int(inn[j])]; !ok {
				extIn[i] += fl
			}
		}
	}
	sg := b.Build()
	sf := &mapeq.Flow{
		G:        sg,
		NodeFlow: make([]float64, len(members)),
		TeleOut:  external,
		Land:     make([]float64, len(members)),
		OutFlow:  make([]float64, sg.M()),
		InFlow:   make([]float64, sg.M()),
		ArcOut:   make([]float64, len(members)),
		ArcIn:    make([]float64, len(members)),
		ExtIn:    extIn,
	}
	for i, v := range members {
		sf.NodeFlow[i] = f.NodeFlow[v]
	}
	idx := 0
	for u := 0; u < sg.N(); u++ {
		ws := sg.OutWeights(u)
		for j := range ws {
			sf.OutFlow[idx] = ws[j]
			sf.ArcOut[u] += ws[j]
			idx++
		}
	}
	idx = 0
	for v := 0; v < sg.N(); v++ {
		ws := sg.InWeights(v)
		for j := range ws {
			sf.InFlow[idx] = ws[j]
			sf.ArcIn[v] += ws[j]
			idx++
		}
	}
	return sf, nil
}

// optimizeSubmodule greedily partitions a module's members by the map
// equation with the module's exit rate as a constant index-codebook offset.
// It is a compact sequential multi-level optimizer: each vertex is priced by
// sc and its move committed at once, before the next vertex is visited.
func optimizeSubmodule(sf *mapeq.Flow, exitOffset float64, sc *Scanner, opt Options, r *rng.RNG) ([]uint32, *mapeq.State, error) {
	n := sf.G.N()
	membership := make([]uint32, n)
	for i := range membership {
		membership[i] = uint32(i)
	}
	st, err := mapeq.NewState(sf, membership, n)
	if err != nil {
		return nil, nil, err
	}
	st.SetExitOffset(exitOffset)

	order := r.Perm(n)
	for sweep := 0; sweep < opt.MaxSweeps; sweep++ {
		moves := 0
		for _, v := range order {
			if target, _, ok := sc.FindBestCommunity(st, sf, v); ok && st.CommitMove(sf, v, target) {
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
	return membership, st, nil
}

// HierCodelength evaluates the hierarchical map equation of a tree over the
// given base flow: the root pays an index codebook over its children's
// enter rates; every internal module pays an index codebook over its exit
// and its children's enter rates; every leaf module pays a codebook over its
// exit and its members' visit rates.
func HierCodelength(f *mapeq.Flow, root *HierNode) float64 {
	if len(root.Children) == 0 {
		// Degenerate tree: one flat codebook over everything.
		return mapeq.OneLevelCodelength(f)
	}
	l := 0.0
	// Root index codebook (the root has no exit).
	rate := 0.0
	for _, c := range root.Children {
		rate += c.Exit
		l -= mapeq.Plogp(c.Exit)
	}
	l += mapeq.Plogp(rate)
	for _, c := range root.Children {
		l += nodeCodelength(f, c)
	}
	return l
}

func nodeCodelength(f *mapeq.Flow, n *HierNode) float64 {
	if n.IsLeaf() {
		rate := n.Exit
		l := -mapeq.Plogp(n.Exit)
		for _, v := range n.Vertices {
			rate += f.NodeFlow[v]
			l -= mapeq.Plogp(f.NodeFlow[v])
		}
		return l + mapeq.Plogp(rate)
	}
	rate := n.Exit
	l := -mapeq.Plogp(n.Exit)
	for _, c := range n.Children {
		rate += c.Exit
		l -= mapeq.Plogp(c.Exit)
	}
	l += mapeq.Plogp(rate)
	for _, c := range n.Children {
		l += nodeCodelength(f, c)
	}
	return l
}

// String renders a summary of the hierarchy.
func (r *HierResult) String() string {
	return fmt.Sprintf("hierarchical L=%.4f bits (two-level %.4f) depth=%d modules=%d",
		r.Codelength, r.TwoLevelCodelength, r.Depth, r.Modules)
}

// FlattenLevel returns the membership induced by cutting the tree at the
// given depth below the root (depth 1 = top modules). Vertices in modules
// shallower than the cut keep their deepest module.
func (r *HierResult) FlattenLevel(depth int) []uint32 {
	mem := make([]uint32, len(r.TopMembership))
	next := uint32(0)
	var walk func(n *HierNode, d int)
	walk = func(n *HierNode, d int) {
		if n.IsLeaf() || d >= depth {
			assignAll(n, mem, next)
			next++
			return
		}
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	for _, c := range r.Root.Children {
		walk(c, 1)
	}
	return mem
}

func assignAll(n *HierNode, mem []uint32, id uint32) {
	if n.IsLeaf() {
		for _, v := range n.Vertices {
			mem[v] = id
		}
		return
	}
	for _, c := range n.Children {
		assignAll(c, mem, id)
	}
}

// Leaves returns all leaf modules of the tree in deterministic order.
func (r *HierResult) Leaves() []*HierNode {
	var out []*HierNode
	var walk func(n *HierNode)
	walk = func(n *HierNode) {
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(r.Root)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Vertices) == 0 || len(out[j].Vertices) == 0 {
			return len(out[i].Vertices) < len(out[j].Vertices)
		}
		return out[i].Vertices[0] < out[j].Vertices[0]
	})
	return out
}
