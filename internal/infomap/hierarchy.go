package infomap

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
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
// member vertices; internal modules carry children. Enter and Exit are the
// base flow's rates into and out of the module's vertex set; they differ on
// directed flow.
type HierNode struct {
	Children []*HierNode
	Vertices []int   // leaf members (nil for internal nodes)
	Enter    float64 // module enter rate: its codeword's rate in the parent's index codebook
	Exit     float64 // module exit rate: the exit codeword's rate in its own codebook
	Flow     float64 // Σ member visit rates
}

// IsLeaf reports whether the node is a leaf module.
func (n *HierNode) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns the number of leaf vertices under the node.
//
//asalint:unreachable test oracle: the hierarchy tests and the package's hierarchical example count the vertices a tree covers
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
	Root *HierNode
	// Flat is the two-level run the hierarchy grew from: its Codelength is
	// the L the hierarchy is compared with, its Membership the top modules
	// the search started from.
	Flat       *Result
	Codelength float64   // hierarchical L in bits
	NodeFlow   []float64 // base visit rate of each vertex
	Depth      int       // tree height including the root
	Modules    int       // total module count across all levels
	// Work is the scan work and accumulator events of the submodule and
	// super-level searches (the flat run's are not included).
	Work WorkerStats
	// Moves counts the moves those searches committed.
	Moves int
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
	flat, flow, err := runContext(ctx, g, opt, nil)
	if err != nil {
		return nil, err
	}
	res := &HierResult{
		Flat:     flat,
		NodeFlow: flow.NodeFlow,
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
	// One Scanner, on the run's own backend, prices every submodule and
	// super-level move.
	sc, err := NewScanner(opt, g.MaxDegree())
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)
	teleTotal := flow.TeleTotal()
	root := twoLevelTree(st, mem, k)
	// Try to split each top module recursively (fine structure below)...
	for _, child := range root.Children {
		if err := splitRecursively(flow, teleTotal, child, sc, opt, r, opt.MaxLevels, &res.Moves); err != nil {
			return nil, err
		}
	}
	// ...and to agglomerate top modules under super modules (coarse
	// structure above), while either direction shortens the code. Each
	// accepted step is priced on the exact tree L, so the tree never
	// prices above the depth-2 tree it grew from.
	if err := addSuperLevels(flow, root, mem, sc, opt, r, &res.Moves); err != nil {
		return nil, err
	}
	res.Work = sc.Stats()
	res.Root = root
	res.Codelength = HierCodelength(flow, root)
	res.Depth = root.Depth()
	res.Modules = countModules(root) - 1 // exclude the root itself
	return res, nil
}

// twoLevelTree returns the depth-2 tree of the partition st prices: the
// root over one leaf module per module of mem (dense IDs in [0, k)).
func twoLevelTree(st *mapeq.State, mem []uint32, k int) *HierNode {
	root := &HierNode{Children: make([]*HierNode, k)}
	for m := range root.Children {
		root.Children[m] = &HierNode{
			Enter: st.ModuleEnter(uint32(m)),
			Exit:  st.ModuleExit(uint32(m)),
			Flow:  st.ModuleFlow(uint32(m)),
		}
	}
	for v, m := range mem {
		root.Children[m].Vertices = append(root.Children[m].Vertices, v)
	}
	return root
}

func countModules(n *HierNode) int {
	total := 1
	for _, c := range n.Children {
		total += countModules(c)
	}
	return total
}

// splitRecursively attempts to split a leaf module into submodules and, when
// accepted, recurses into the new children. teleTotal is the base flow's
// total teleportation output; moves counts the committed moves.
func splitRecursively(flow *mapeq.Flow, teleTotal float64, node *HierNode, sc *Scanner, opt Options, r *rng.RNG, depthBudget int, moves *int) error {
	if depthBudget <= 0 || !node.IsLeaf() || len(node.Vertices) < 4 {
		return nil
	}
	sf, err := subFlow(flow, teleTotal, node.Vertices)
	if err != nil {
		return err
	}
	membership, innerState, err := optimizeSubmodule(sf, node.Exit, sc, opt, r, moves)
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
	// the module's index codebook plus the children's leaf codebooks, which
	// is innerState's L less the plogp(exit) its exit offset leaves out.
	leafCost := mapeq.Codebook(node.Exit, sf.NodeFlow)
	splitCost := innerState.Codelength() - mapeq.Plogp(node.Exit)
	if splitCost >= leafCost-opt.MinImprovement {
		return nil
	}
	// Accept: materialize children (in member order for determinism).
	children := make([]*HierNode, k)
	for local, m := range membership {
		if children[m] == nil {
			children[m] = &HierNode{
				Enter: innerState.ModuleEnter(original[local]),
				Exit:  innerState.ModuleExit(original[local]),
				Flow:  innerState.ModuleFlow(original[local]),
			}
		}
		children[m].Vertices = append(children[m].Vertices, node.Vertices[local])
	}
	node.Children = children
	node.Vertices = nil
	for _, c := range children {
		if err := splitRecursively(flow, teleTotal, c, sc, opt, r, depthBudget-1, moves); err != nil {
			return err
		}
	}
	return nil
}

// addSuperLevels repeatedly tries to group the root's children under a new
// level of super modules. Choosing the grouping is *exactly* a two-level map
// equation problem on the contracted flow with each module-node's visit rate
// replaced by the module's enter rate: with enter_c and exit_c the rates of
// child c and enter_s and exit_s those of super module s, the State's L is
//
//	Codebook(0, enter_s) + Σ_s Codebook(exit_s, {enter_c : c ∈ s}),
//
// the root index codebook plus the super-module codebooks of the deeper
// map equation. A grouping is accepted when that beats the current root
// index codebook, Codebook(0, enter_c), and the procedure repeats on the
// new top level until no further coarsening pays. moves counts the committed
// moves.
func addSuperLevels(flow *mapeq.Flow, root *HierNode, topMembership []uint32, sc *Scanner, opt Options, r *rng.RNG, moves *int) error {
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
			cf.NodeFlow[i] = c.Enter
		}
		grouping, st, err := optimizeSubmodule(cf, 0, sc, opt, r, moves)
		if err != nil {
			return err
		}
		originalIDs := append([]uint32(nil), grouping...)
		ks := mapeq.CompactMembership(grouping)
		if ks < 2 || ks >= k {
			return nil
		}
		if st.Codelength() >= mapeq.Codebook(0, cf.NodeFlow)-opt.MinImprovement {
			return nil
		}
		// Restructure: wrap the children into super modules.
		supers := make([]*HierNode, ks)
		for i, c := range root.Children {
			s := grouping[i]
			if supers[s] == nil {
				supers[s] = &HierNode{
					Enter: st.ModuleEnter(originalIDs[i]),
					Exit:  st.ModuleExit(originalIDs[i]),
				}
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

// subFlow builds the flow restricted to a module's members so that a State
// on it gives every set of members the exit and enter rates the base flow
// gives that set. Internal arcs keep their flows; members keep their
// teleportation output and global landing shares, so teleportation between
// members prices as it does globally. Flow across the module boundary
// becomes external: out-arcs leaving the module go to ExtOut, and in-arcs
// from outside plus the teleportation landing from outside,
// (teleTotal − Σ members' TeleOut)·Land, go to ExtIn.
func subFlow(f *mapeq.Flow, teleTotal float64, members []int) (*mapeq.Flow, error) {
	n := len(members)
	local := make(map[int]int, n)
	teleOutside := teleTotal
	for i, v := range members {
		local[v] = i
		teleOutside -= f.TeleOut[v]
	}
	g := f.G
	b := graph.NewBuilder(n, true)
	sf := &mapeq.Flow{
		NodeFlow: make([]float64, n),
		TeleOut:  make([]float64, n),
		Land:     make([]float64, n),
		ExtIn:    make([]float64, n),
		ExtOut:   make([]float64, n),
	}
	for i, v := range members {
		sf.NodeFlow[i], sf.TeleOut[i], sf.Land[i] = f.NodeFlow[v], f.TeleOut[v], f.Land[v]
		sf.ExtIn[i] = teleOutside * f.Land[v]
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
				sf.ExtOut[i] += fl
			}
		}
		ilo, _ := g.InRange(v)
		inn := g.InNeighbors(v)
		for j := range inn {
			if _, ok := local[int(inn[j])]; !ok && f.InFlow[ilo+j] > 0 {
				sf.ExtIn[i] += f.InFlow[ilo+j]
			}
		}
	}
	sf.G = b.Build()
	sf.OutFlow = make([]float64, sf.G.M())
	sf.InFlow = make([]float64, sf.G.M())
	sf.ArcOut = append([]float64(nil), sf.ExtOut...)
	sf.ArcIn = append([]float64(nil), sf.ExtIn...)
	idx := 0
	for u := 0; u < n; u++ {
		ws := sf.G.OutWeights(u)
		for j := range ws {
			sf.OutFlow[idx] = ws[j]
			sf.ArcOut[u] += ws[j]
			idx++
		}
	}
	idx = 0
	for v := 0; v < n; v++ {
		ws := sf.G.InWeights(v)
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
// sc and its move committed at once through sc, before the next vertex is
// visited. committed counts the committed moves.
func optimizeSubmodule(sf *mapeq.Flow, exitOffset float64, sc *Scanner, opt Options, r *rng.RNG, committed *int) ([]uint32, *mapeq.State, error) {
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
			if target, _, ok := sc.FindBestCommunity(st, sf, v); ok && sc.CommitMove(st, sf, v, target) {
				moves++
			}
		}
		*committed += moves
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
// exit and its members' visit rates. Each is a mapeq.Codebook.
func HierCodelength(f *mapeq.Flow, root *HierNode) float64 {
	if len(root.Children) == 0 {
		// Degenerate tree: one flat codebook over everything.
		return mapeq.OneLevelCodelength(f)
	}
	var rates []float64
	var walk func(n *HierNode, exit float64) float64
	walk = func(n *HierNode, exit float64) float64 {
		rates = rates[:0]
		if n.IsLeaf() {
			for _, v := range n.Vertices {
				rates = append(rates, f.NodeFlow[v])
			}
			return mapeq.Codebook(exit, rates)
		}
		for _, c := range n.Children {
			rates = append(rates, c.Enter)
		}
		l := mapeq.Codebook(exit, rates)
		for _, c := range n.Children {
			l += walk(c, c.Exit)
		}
		return l
	}
	// The root has no exit.
	return walk(root, 0)
}

// String renders a summary of the hierarchy.
func (r *HierResult) String() string {
	return fmt.Sprintf("hierarchical L=%.4f bits (two-level %.4f) depth=%d modules=%d",
		r.Codelength, r.Flat.Codelength, r.Depth, r.Modules)
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
