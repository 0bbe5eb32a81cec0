// Package mapeq implements the map equation of Rosvall & Bergstrom: the
// information-theoretic objective that Infomap minimizes. It provides
//
//   - Flow: the stationary random-walk flow on a graph (visit rates, per-arc
//     flows, and teleportation mass), for both undirected graphs (closed form)
//     and directed graphs (from PageRank),
//   - State: per-partition bookkeeping (module exit rates, flow masses) with
//     O(1) incremental ΔL evaluation and application of vertex moves, which is
//     exactly the quantity the FindBestCommunity kernel of the paper computes
//     from its accumulated in/out flows.
//
// Conventions: plogp(x) = x·log2(x); codelengths are in bits per step.
package mapeq

import (
	"fmt"
	"math"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/sched"
)

// Plogp returns x*log2(x) with the continuous extension Plogp(0) = 0.
func Plogp(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log2(x)
}

// Flow holds the stationary random-walk flow on a graph level. Arc flows are
// stored parallel to the graph's CSR rows; self-loop arcs carry zero flow
// because a self-transition can never exit a module and therefore never
// enters the map equation.
type Flow struct {
	G *graph.Graph

	NodeFlow []float64 // visit rate p_α of each vertex; sums to ~1
	TeleOut  []float64 // teleportation mass emitted by each vertex
	Land     []float64 // teleportation landing share of each vertex; sums to 1
	OutFlow  []float64 // flow on each out-arc, parallel to G's out CSR
	InFlow   []float64 // flow on each in-arc, parallel to G's in CSR
	ArcOut   []float64 // per vertex: total non-self out-arc flow
	ArcIn    []float64 // per vertex: total non-self in-arc flow
	// ExtIn, when non-nil, is flow entering each vertex from outside the
	// graph (the enter-side analogue of pure-exit TeleOut). The hierarchical
	// driver uses it to represent boundary in-flow when optimizing inside a
	// module.
	ExtIn []float64
}

// NewUndirectedFlow builds the closed-form stationary flow of an unbiased
// random walk on an undirected graph: p_u ∝ strength(u), arc flow w/(2W).
// There is no teleportation.
func NewUndirectedFlow(g *graph.Graph) (*Flow, error) {
	if g.Directed() {
		return nil, fmt.Errorf("mapeq: NewUndirectedFlow on a directed graph")
	}
	n := g.N()
	f := newFlowShell(g)
	total := g.TotalWeight()
	if total == 0 {
		for u := 0; u < n; u++ {
			if n > 0 {
				f.NodeFlow[u] = 1 / float64(n)
				f.Land[u] = 1 / float64(n)
			}
		}
		return f, nil
	}
	idx := 0
	for u := 0; u < n; u++ {
		s := g.OutStrength(u)
		f.NodeFlow[u] = s / total
		f.Land[u] = 1 / float64(n)
		ws := g.OutWeights(u)
		nb := g.OutNeighbors(u)
		for i := range ws {
			fl := ws[i] / total
			if int(nb[i]) == u {
				fl = 0
			}
			f.OutFlow[idx] = fl
			f.ArcOut[u] += fl
			idx++
		}
	}
	// Undirected: in CSR aliases out CSR, flows are symmetric.
	f.InFlow = f.OutFlow
	copy(f.ArcIn, f.ArcOut)
	return f, nil
}

// NewDirectedFlow builds the flow of a teleporting random walk on a directed
// graph from its stationary visit rates (PageRank with the same damping).
// Arc flow u→v is damping·p_u·w_uv/s_u; the remaining (1−damping)·p_u (all of
// p_u for dangling vertices) teleports uniformly over landing shares.
func NewDirectedFlow(g *graph.Graph, rank []float64, damping float64) (*Flow, error) {
	if !g.Directed() {
		return nil, fmt.Errorf("mapeq: NewDirectedFlow on an undirected graph")
	}
	if len(rank) != g.N() {
		return nil, fmt.Errorf("mapeq: rank length %d, want %d", len(rank), g.N())
	}
	if damping <= 0 || damping >= 1 {
		return nil, fmt.Errorf("mapeq: damping %g out of (0,1)", damping)
	}
	n := g.N()
	f := newFlowShell(g)
	copy(f.NodeFlow, rank)
	for u := 0; u < n; u++ {
		if n > 0 {
			f.Land[u] = 1 / float64(n)
		}
		s := g.OutStrength(u)
		if s == 0 {
			f.TeleOut[u] = rank[u] // dangling: everything teleports
			continue
		}
		f.TeleOut[u] = (1 - damping) * rank[u]
	}
	// Out-arc flows.
	idx := 0
	for u := 0; u < n; u++ {
		s := g.OutStrength(u)
		nb, ws := g.OutNeighbors(u), g.OutWeights(u)
		for i := range nb {
			fl := 0.0
			if s > 0 && int(nb[i]) != u {
				fl = damping * rank[u] * ws[i] / s
			}
			f.OutFlow[idx] = fl
			f.ArcOut[u] += fl
			idx++
		}
	}
	// In-arc flows mirror the out flows.
	idx = 0
	for v := 0; v < n; v++ {
		in, ws := g.InNeighbors(v), g.InWeights(v)
		for i := range in {
			u := int(in[i])
			fl := 0.0
			if s := g.OutStrength(u); s > 0 && u != v {
				fl = damping * rank[u] * ws[i] / s
			}
			f.InFlow[idx] = fl
			f.ArcIn[v] += fl
			idx++
		}
	}
	return f, nil
}

func newFlowShell(g *graph.Graph) *Flow {
	n := g.N()
	f := &Flow{
		G:        g,
		NodeFlow: make([]float64, n),
		TeleOut:  make([]float64, n),
		Land:     make([]float64, n),
		OutFlow:  make([]float64, g.M()),
		ArcOut:   make([]float64, n),
		ArcIn:    make([]float64, n),
	}
	if g.Directed() {
		f.InFlow = make([]float64, g.M())
	}
	return f
}

// Contract aggregates the flow onto the quotient graph induced by
// membership. Super-arcs carry summed boundary flow (intra-module flow
// disappears into implicit self-transitions); node flows, teleportation mass,
// and landing shares sum over members. The resulting level is always
// represented as a directed flow graph, which is exact for both input kinds
// because the map equation consumes only per-arc flows.
//
// Contract runs serially; ContractParallel is the same kernel over a worker
// pool and produces a bit-identical Flow.
func (f *Flow) Contract(membership []uint32, numModules int) (*Flow, error) {
	return f.ContractParallel(membership, numModules, nil)
}

// contractBlocksPerWorker oversubscribes the contraction dispatches so that
// the work-stealing tail can even out degree skew between blocks.
const contractBlocksPerWorker = 4

// ContractParallel is Contract over a sched.Pool (nil or one worker = run
// inline). The kernel is organized so that the result is bit-identical to
// the serial Contract regardless of worker count or steal schedule:
//
//   - Boundary arcs are counted per degree-aware vertex block (exact
//     pre-sizing — no builder growth or rehash churn during contraction),
//     then written into a pre-sized arc array at per-block offsets from a
//     prefix sum. Block concatenation order equals CSR order, so the
//     builder always sees the identical arc sequence and merges duplicate
//     super-arcs in the identical float order.
//   - Per-module member sums (node flow, teleportation, landing mass) are
//     aggregated per worker over disjoint module ranges, each module summing
//     its members in global vertex order — the same addition order as the
//     serial loop, for any worker count.
func (f *Flow) ContractParallel(membership []uint32, numModules int, pool *sched.Pool) (*Flow, error) {
	g := f.G
	n := g.N()
	if len(membership) != n {
		return nil, fmt.Errorf("mapeq: membership length %d, want %d", len(membership), n)
	}
	for u, m := range membership {
		if int(m) >= numModules {
			return nil, fmt.Errorf("mapeq: vertex %d module %d out of range", u, m)
		}
	}
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}

	// Degree-aware vertex blocks: each block carries ~equal arc work.
	var bounds []int
	if workers > 1 {
		bounds = sched.WeightedBounds(n, workers*contractBlocksPerWorker,
			func(u int) int64 { return int64(g.OutDegree(u)) + 1 })
	} else {
		bounds = []int{0, n}
	}
	nblocks := len(bounds) - 1

	// Pass 1: count boundary arcs (positive flow, crossing modules) per block.
	counts := make([]int, nblocks)
	//asalint:hotroot contraction pass 1: per-block arc counting
	countBlock := func(_, blk, lo, hi int) error {
		c := 0
		for u := lo; u < hi; u++ {
			mu := membership[u]
			alo, _ := g.OutRange(u)
			nb := g.OutNeighbors(u)
			for i := range nb {
				if f.OutFlow[alo+i] > 0 && membership[nb[i]] != mu {
					c++
				}
			}
		}
		counts[blk] = c
		return nil
	}
	if err := dispatch(pool, bounds, countBlock); err != nil {
		return nil, err
	}
	offs := make([]int, nblocks+1)
	for b := 0; b < nblocks; b++ {
		offs[b+1] = offs[b] + counts[b]
	}

	// Pass 2: write boundary arcs at exact offsets, in CSR order per block.
	arcs := make([]graph.Edge, offs[nblocks])
	//asalint:hotroot contraction pass 2: scatter arcs into prefix-summed slots
	fillBlock := func(_, blk, lo, hi int) error {
		pos := offs[blk]
		for u := lo; u < hi; u++ {
			mu := membership[u]
			alo, _ := g.OutRange(u)
			nb := g.OutNeighbors(u)
			for i := range nb {
				fl := f.OutFlow[alo+i]
				if fl <= 0 {
					continue
				}
				mv := membership[nb[i]]
				if mv == mu {
					continue
				}
				arcs[pos] = graph.Edge{From: mu, To: mv, Weight: fl}
				pos++
			}
		}
		return nil
	}
	if err := dispatch(pool, bounds, fillBlock); err != nil {
		return nil, err
	}

	// Exact-count pre-sized builder: no growth or rehash churn.
	b := graph.NewBuilder(numModules, true)
	b.Reserve(len(arcs))
	for _, e := range arcs {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	sg := b.Build()
	sf := newFlowShell(sg)

	// Per-module member sums over disjoint module ranges. The member index
	// lists each module's vertices in ascending vertex order, so every
	// module's float sums accumulate in the serial loop's order no matter
	// which worker owns the range.
	memberOffs := make([]int, numModules+1)
	for _, m := range membership {
		memberOffs[m+1]++
	}
	for m := 0; m < numModules; m++ {
		memberOffs[m+1] += memberOffs[m]
	}
	members := make([]int32, n)
	cursor := make([]int, numModules)
	copy(cursor, memberOffs[:numModules])
	for u, m := range membership {
		members[cursor[m]] = int32(u)
		cursor[m]++
	}
	var mbounds []int
	if workers > 1 {
		mbounds = sched.WeightedBounds(numModules, workers*contractBlocksPerWorker,
			func(m int) int64 { return int64(memberOffs[m+1] - memberOffs[m]) })
	} else {
		mbounds = []int{0, numModules}
	}
	//asalint:hotroot contraction pass 3: fold duplicate arcs per community
	sumBlock := func(_, _, lo, hi int) error {
		for m := lo; m < hi; m++ {
			var nf, to, ld float64
			for _, u := range members[memberOffs[m]:memberOffs[m+1]] {
				nf += f.NodeFlow[u]
				to += f.TeleOut[u]
				ld += f.Land[u]
			}
			sf.NodeFlow[m] = nf
			sf.TeleOut[m] = to
			sf.Land[m] = ld
		}
		return nil
	}
	if err := dispatch(pool, mbounds, sumBlock); err != nil {
		return nil, err
	}

	// Super-arc flows are the edge weights themselves.
	idx := 0
	for u := 0; u < sg.N(); u++ {
		ws := sg.OutWeights(u)
		for i := range ws {
			sf.OutFlow[idx] = ws[i]
			sf.ArcOut[u] += ws[i]
			idx++
		}
	}
	idx = 0
	for v := 0; v < sg.N(); v++ {
		ws := sg.InWeights(v)
		for i := range ws {
			sf.InFlow[idx] = ws[i]
			sf.ArcIn[v] += ws[i]
			idx++
		}
	}
	return sf, nil
}

// dispatch runs fn over the blocks on the pool, or inline when no pool (or a
// one-worker pool) is available.
func dispatch(pool *sched.Pool, bounds []int, fn sched.BlockFunc) error {
	if pool == nil || pool.Workers() == 1 {
		for b := 0; b+1 < len(bounds); b++ {
			if err := fn(0, b, bounds[b], bounds[b+1]); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := pool.Dispatch(bounds, fn)
	return err
}

// NewDirectedFlowUnrecorded builds the "unrecorded teleportation" flow model
// — the default of the modern reference Infomap: teleportation is used only
// to make the walk ergodic (through the PageRank ranks), but teleportation
// steps are not encoded. Arc flows are damping·p_u·w/s_u as in the recorded
// model; the encoded visit rate of each vertex is its arc in-flow, and the
// whole flow field is renormalized to sum to 1. There is no teleportation
// mass in the returned flow, so module enter and exit rates come from arcs
// alone (and generally differ, which the State handles).
func NewDirectedFlowUnrecorded(g *graph.Graph, rank []float64, damping float64) (*Flow, error) {
	f, err := NewDirectedFlow(g, rank, damping)
	if err != nil {
		return nil, err
	}
	n := g.N()
	// Encoded visit rate = arc in-flow; drop teleportation.
	total := 0.0
	for v := 0; v < n; v++ {
		total += f.ArcIn[v]
	}
	if total <= 0 {
		// Arcless graph: fall back to uniform rates with no flow.
		for v := 0; v < n; v++ {
			f.NodeFlow[v] = 1 / float64(n)
			f.TeleOut[v] = 0
		}
		return f, nil
	}
	inv := 1 / total
	for v := 0; v < n; v++ {
		f.NodeFlow[v] = f.ArcIn[v] * inv
		f.TeleOut[v] = 0
		f.ArcOut[v] *= inv
		f.ArcIn[v] *= inv
	}
	for i := range f.OutFlow {
		f.OutFlow[i] *= inv
	}
	if &f.InFlow[0] != &f.OutFlow[0] {
		for i := range f.InFlow {
			f.InFlow[i] *= inv
		}
	}
	return f, nil
}
