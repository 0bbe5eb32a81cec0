// Package graph provides the compressed-sparse-row (CSR) graph substrate used
// by every algorithm in the repository: the parallel Infomap core, the Louvain
// baseline, PageRank, and the benchmark harness.
//
// Graphs are weighted and either directed or undirected. Undirected edges are
// stored in both endpoint adjacency rows, mirroring how HyPC-Map and the
// reference Infomap treat undirected input. Directed graphs additionally carry
// a transposed (in-link) CSR so that the FindBestCommunity kernel can
// accumulate incoming flow without a scan of the whole edge set.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a weighted directed arc used during graph construction.
type Edge struct {
	From, To uint32
	Weight   float64
}

// Graph is an immutable weighted graph in CSR form. Vertex IDs are dense
// integers in [0, N). Construct via Builder or the generators in package gen;
// the zero value is an empty graph.
type Graph struct {
	n        int
	directed bool

	// Out-adjacency CSR.
	offsets []int64
	targets []uint32
	weights []float64

	// In-adjacency CSR. For undirected graphs these alias the out slices.
	inOffsets []int64
	inTargets []uint32
	inWeights []float64

	totalWeight float64 // sum of stored arc weights (each undirected edge counted twice)
	selfWeight  float64 // total weight on self-loops (counted once per stored arc)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of stored arcs. For an undirected graph this is twice
// the number of edges (each edge appears in both adjacency rows), matching the
// usual CSR convention.
func (g *Graph) M() int { return len(g.targets) }

// NumEdges returns the number of logical edges: M() for directed graphs,
// and (M() + selfLoopArcs) / 2-style halving for undirected graphs where
// non-loop arcs are mirrored. Self-loops are stored once in undirected graphs.
func (g *Graph) NumEdges() int {
	if g.directed {
		return len(g.targets)
	}
	loops := 0
	for u := 0; u < g.n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if int(v) == u {
				loops++
			}
		}
	}
	return (len(g.targets)-loops)/2 + loops
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// TotalWeight returns the sum of all stored arc weights.
func (g *Graph) TotalWeight() float64 { return g.totalWeight }

// SelfLoopWeight returns the total weight on self-loop arcs.
func (g *Graph) SelfLoopWeight() float64 { return g.selfWeight }

// OutDegree returns the number of out-arcs of u.
func (g *Graph) OutDegree(u int) int { return int(g.offsets[u+1] - g.offsets[u]) }

// InDegree returns the number of in-arcs of u.
func (g *Graph) InDegree(u int) int { return int(g.inOffsets[u+1] - g.inOffsets[u]) }

// OutRange returns the half-open index range [lo, hi) of u's out-arcs within
// the CSR arc arrays. Packages that keep per-arc side data (e.g. flows)
// parallel to the CSR use it to slice their arrays per vertex.
func (g *Graph) OutRange(u int) (lo, hi int) {
	return int(g.offsets[u]), int(g.offsets[u+1])
}

// InRange is OutRange for the in-arc CSR.
func (g *Graph) InRange(u int) (lo, hi int) {
	return int(g.inOffsets[u]), int(g.inOffsets[u+1])
}

// OutNeighbors returns the out-neighbor IDs of u. The slice aliases internal
// storage and must not be modified.
func (g *Graph) OutNeighbors(u int) []uint32 {
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// OutWeights returns weights parallel to OutNeighbors(u).
func (g *Graph) OutWeights(u int) []float64 {
	return g.weights[g.offsets[u]:g.offsets[u+1]]
}

// InNeighbors returns the in-neighbor IDs of u.
func (g *Graph) InNeighbors(u int) []uint32 {
	return g.inTargets[g.inOffsets[u]:g.inOffsets[u+1]]
}

// InWeights returns weights parallel to InNeighbors(u).
func (g *Graph) InWeights(u int) []float64 {
	return g.inWeights[g.inOffsets[u]:g.inOffsets[u+1]]
}

// OutStrength returns the sum of out-arc weights of u.
func (g *Graph) OutStrength(u int) float64 {
	s := 0.0
	for _, w := range g.OutWeights(u) {
		s += w
	}
	return s
}

// InStrength returns the sum of in-arc weights of u.
func (g *Graph) InStrength(u int) float64 {
	s := 0.0
	for _, w := range g.InWeights(u) {
		s += w
	}
	return s
}

// MaxOutDegree returns the largest out-degree in the graph, or 0 if empty.
func (g *Graph) MaxOutDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.OutDegree(u); d > max {
			max = d
		}
	}
	return max
}

// MaxInDegree returns the largest in-degree in the graph, or 0 if empty.
// For undirected graphs the in-CSR aliases the out-CSR, so this equals
// MaxOutDegree.
func (g *Graph) MaxInDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := g.InDegree(u); d > max {
			max = d
		}
	}
	return max
}

// MaxDegree returns the largest of MaxOutDegree and MaxInDegree — the upper
// bound on any vertex's neighborhood size, and therefore on the number of
// distinct modules one FindBestCommunity accumulator session can hold. The
// infomap kernel sizes its per-worker accumulators from it.
func (g *Graph) MaxDegree() int {
	out := g.MaxOutDegree()
	if !g.directed {
		return out
	}
	if in := g.MaxInDegree(); in > out {
		return in
	}
	return out
}

// DegreeHistogram returns hist where hist[k] is the number of vertices with
// out-degree k. The slice has length MaxOutDegree()+1 (length 1 for an empty
// graph). This is the raw data behind the paper's Figure 4.
func (g *Graph) DegreeHistogram() []int {
	hist := make([]int, g.MaxOutDegree()+1)
	for u := 0; u < g.n; u++ {
		hist[g.OutDegree(u)]++
	}
	return hist
}

// DegreeCDF returns, for each degree threshold d in thresholds, the fraction
// of vertices whose out-degree is <= d. This is the data behind the paper's
// Figure 5 (fraction of neighbor lists that fit in a CAM of a given size).
func (g *Graph) DegreeCDF(thresholds []int) []float64 {
	out := make([]float64, len(thresholds))
	if g.n == 0 {
		return out
	}
	for i, d := range thresholds {
		cnt := 0
		for u := 0; u < g.n; u++ {
			if g.OutDegree(u) <= d {
				cnt++
			}
		}
		out[i] = float64(cnt) / float64(g.n)
	}
	return out
}

// Validate checks structural invariants and returns an error describing the
// first violation found. It is used by tests and by the edge-list reader.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 || int(g.offsets[g.n]) != len(g.targets) {
		return fmt.Errorf("graph: offset endpoints [%d,%d] inconsistent with %d arcs",
			g.offsets[0], g.offsets[g.n], len(g.targets))
	}
	if len(g.targets) != len(g.weights) {
		return fmt.Errorf("graph: %d targets but %d weights", len(g.targets), len(g.weights))
	}
	for u := 0; u < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", u)
		}
		row := g.OutNeighbors(u)
		for i, v := range row {
			if int(v) >= g.n {
				return fmt.Errorf("graph: arc %d->%d out of range (n=%d)", u, v, g.n)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: row %d not strictly sorted at position %d", u, i)
			}
		}
	}
	for i, w := range g.weights {
		if !(w > 0) {
			return fmt.Errorf("graph: non-positive weight %g at arc %d", w, i)
		}
	}
	if !g.directed {
		// Symmetry: every non-loop arc must have a mirror with equal weight.
		for u := 0; u < g.n; u++ {
			nb, ws := g.OutNeighbors(u), g.OutWeights(u)
			for i, v := range nb {
				if int(v) == u {
					continue
				}
				// Build sums each run of duplicate arcs in insertion order,
				// and the two copies of an undirected edge are recorded
				// together, so mirrored weights agree bit for bit.
				if w, ok := g.ArcWeight(int(v), u); !ok || w != ws[i] {
					return fmt.Errorf("graph: undirected edge %d-%d not symmetric", u, v)
				}
			}
		}
	}
	return nil
}

// ArcWeight returns the weight of arc u->v and whether it exists, via binary
// search of u's sorted adjacency row.
func (g *Graph) ArcWeight(u, v int) (float64, bool) {
	row := g.OutNeighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= uint32(v) })
	if i < len(row) && row[i] == uint32(v) {
		return g.OutWeights(u)[i], true
	}
	return 0, false
}

// HasArc reports whether arc u->v exists.
func (g *Graph) HasArc(u, v int) bool {
	_, ok := g.ArcWeight(u, v)
	return ok
}

// Builder accumulates arcs and freezes them into a canonical CSR Graph:
// every row sorted by target, and duplicate arcs merged into one by summing
// their weights in insertion order, mirroring how HyPC-Map's
// Convert2SuperNode collapses parallel super-edges.
type Builder struct {
	n        int
	directed bool
	edges    []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// AddEdge records an edge. For undirected builders the mirror arc is added
// automatically (self-loops are stored once). Zero- or negative-weight edges
// are rejected.
func (b *Builder) AddEdge(u, v uint32, w float64) error {
	if int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range n=%d", u, v, b.n)
	}
	if !(w > 0) {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive weight %g", u, v, w)
	}
	b.add(u, v, w)
	return nil
}

// add is AddEdge for callers in this package that have already checked the
// endpoints and the weight.
func (b *Builder) add(u, v uint32, w float64) {
	mirror := !b.directed && u != v
	if free := cap(b.edges) - len(b.edges); free == 0 || mirror && free == 1 {
		// Double: append grows large slices by 1.25x, which allocates about
		// five times the final slice over a long edge list.
		b.Reserve(len(b.edges) + 64)
	}
	b.edges = append(b.edges, Edge{u, v, w})
	if mirror {
		b.edges = append(b.edges, Edge{v, u, w})
	}
}

// NumPendingEdges returns the number of arcs recorded so far (after
// undirected mirroring).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Reserve pre-allocates capacity for at least n additional arcs (after
// undirected mirroring), so that a caller that knows the exact arc count —
// e.g. the contraction kernels after their boundary-arc counting pass — can
// add edges without growth reallocations.
func (b *Builder) Reserve(n int) {
	if free := cap(b.edges) - len(b.edges); free >= n {
		return
	}
	edges := make([]Edge, len(b.edges), len(b.edges)+n)
	copy(edges, b.edges)
	b.edges = edges
}

// Build freezes the recorded arcs into a Graph in O(n + m) time plus the
// sorting of each row, with no comparison sort over all arcs. A counting
// pass over the sources sets the row offsets, and a scatter writes each
// arc's target and weight into its row in insertion order. Each row is then
// stable-sorted by target, and runs of duplicate arcs are summed in
// insertion order — so the mirrored copies of an undirected edge sum to
// bit-identical weights. Scratch space beyond the output arrays is one row,
// and only for rows too long for insertion sort. When duplicates merged, the
// arcs are copied into exactly-sized arrays, so a graph never retains its
// pre-merge capacity. Build leaves the recorded arcs untouched; the Builder
// may keep adding arcs and build again.
func (b *Builder) Build() *Graph {
	n, arcs := b.n, b.edges
	offsets := make([]int64, n+1)
	for _, e := range arcs {
		offsets[e.From+1]++
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	targets := make([]uint32, len(arcs))
	weights := make([]float64, len(arcs))
	// offsets[u] serves as row u's write cursor, ending at the start of row
	// u+1; the copy shifts the row starts back into place.
	for _, e := range arcs {
		i := offsets[e.From]
		targets[i], weights[i] = e.To, e.Weight
		offsets[e.From] = i + 1
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0

	g := &Graph{n: n, directed: b.directed, offsets: offsets}
	var scratch rowScratch
	m, lo := int64(0), int64(0)
	for u := 0; u < n; u++ {
		hi := offsets[u+1]
		row, ws := targets[lo:hi], weights[lo:hi]
		sortRow(row, ws, &scratch)
		// Merge duplicates in place: the write index m never passes the
		// read index, so compaction into the same arrays is safe.
		offsets[u] = m
		for i := 0; i < len(row); {
			v, w := row[i], ws[i]
			for i++; i < len(row) && row[i] == v; i++ {
				w += ws[i]
			}
			targets[m], weights[m] = v, w
			m++
			g.totalWeight += w
			if int(v) == u {
				g.selfWeight += w
			}
		}
		lo = hi
	}
	offsets[n] = m
	if m < int64(len(arcs)) {
		targets = append(make([]uint32, 0, m), targets[:m]...)
		weights = append(make([]float64, 0, m), weights[:m]...)
	}
	g.targets, g.weights = targets, weights

	if b.directed {
		g.buildInCSR()
	} else {
		g.inOffsets, g.inTargets, g.inWeights = g.offsets, g.targets, g.weights
	}
	return g
}

// buildInCSR constructs the transposed adjacency by scattering the finished
// out-CSR. Sources are visited in ascending order, so each in-row comes out
// sorted by source.
func (g *Graph) buildInCSR() {
	in := make([]int64, g.n+1)
	for _, v := range g.targets {
		in[v+1]++
	}
	for v := 0; v < g.n; v++ {
		in[v+1] += in[v]
	}
	g.inTargets = make([]uint32, len(g.targets))
	g.inWeights = make([]float64, len(g.targets))
	for u := 0; u < g.n; u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			v := g.targets[i]
			j := in[v]
			g.inTargets[j], g.inWeights[j] = uint32(u), g.weights[i]
			in[v] = j + 1
		}
	}
	copy(in[1:], in[:g.n])
	in[0] = 0
	g.inOffsets = in
}

// insertionSortMax is the longest row sorted by insertion alone; longer
// rows are merge-sorted from insertion-sorted runs of this length.
const insertionSortMax = 32

// rowScratch is the merge buffer for long rows, grown to the longest row
// that needed it and reused across rows.
type rowScratch struct {
	targets []uint32
	weights []float64
}

// sortRow stable-sorts one row's parallel target and weight slices by
// target, keeping arcs with equal targets in insertion order.
func sortRow(t []uint32, w []float64, s *rowScratch) {
	if len(t) <= insertionSortMax {
		insertionSortRow(t, w)
		return
	}
	sorted := true
	for i := 1; i < len(t); i++ {
		if t[i] < t[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	n := len(t)
	for lo := 0; lo < n; lo += insertionSortMax {
		hi := min(lo+insertionSortMax, n)
		insertionSortRow(t[lo:hi], w[lo:hi])
	}
	if cap(s.targets) < n {
		s.targets, s.weights = make([]uint32, n), make([]float64, n)
	}
	srcT, srcW := t, w
	dstT, dstW := s.targets[:n], s.weights[:n]
	for width := insertionSortMax; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			mergeRuns(dstT[lo:hi], dstW[lo:hi], srcT[lo:mid], srcW[lo:mid], srcT[mid:hi], srcW[mid:hi])
		}
		srcT, srcW, dstT, dstW = dstT, dstW, srcT, srcW
	}
	if &srcT[0] != &t[0] {
		copy(t, srcT)
		copy(w, srcW)
	}
}

// insertionSortRow is the stable insertion sort behind sortRow.
func insertionSortRow(t []uint32, w []float64) {
	for i := 1; i < len(t); i++ {
		v, x := t[i], w[i]
		j := i
		for ; j > 0 && t[j-1] > v; j-- {
			t[j], w[j] = t[j-1], w[j-1]
		}
		t[j], w[j] = v, x
	}
}

// mergeRuns merges the sorted runs a and b into dst, taking from a on ties
// so that the merge is stable.
func mergeRuns(dstT []uint32, dstW []float64, aT []uint32, aW []float64, bT []uint32, bW []float64) {
	i, j, k := 0, 0, 0
	for i < len(aT) && j < len(bT) {
		if bT[j] < aT[i] {
			dstT[k], dstW[k] = bT[j], bW[j]
			j++
		} else {
			dstT[k], dstW[k] = aT[i], aW[i]
			i++
		}
		k++
	}
	copy(dstW[k:], aW[i:])
	k += copy(dstT[k:], aT[i:])
	copy(dstT[k:], bT[j:])
	copy(dstW[k:], bW[j:])
}

// Contract builds the quotient graph induced by a module assignment:
// membership[u] is the module of vertex u and modules must be dense in
// [0, numModules). Arcs between the same module pair merge into one
// super-arc with summed weight; intra-module arcs become self-loops. This is
// the Convert2SuperNode kernel of HyPC-Map.
func (g *Graph) Contract(membership []uint32, numModules int) (*Graph, error) {
	if len(membership) != g.n {
		return nil, fmt.Errorf("graph: membership length %d, want %d", len(membership), g.n)
	}
	for u, m := range membership {
		if int(m) >= numModules {
			return nil, fmt.Errorf("graph: vertex %d has module %d >= %d", u, m, numModules)
		}
	}
	b := NewBuilder(numModules, g.directed)
	for u := 0; u < g.n; u++ {
		mu := membership[u]
		nb, ws := g.OutNeighbors(u), g.OutWeights(u)
		for i, v := range nb {
			mv := membership[v]
			if !g.directed {
				// Each undirected edge is stored twice; keep one copy per
				// unordered pair so the builder's mirroring restores symmetry.
				if int(v) < u {
					continue
				}
				if u == int(v) {
					// Undirected self-loop stored once already.
					if err := b.AddEdge(mu, mv, ws[i]); err != nil {
						return nil, err
					}
					continue
				}
				if mu == mv {
					// Intra-module edge contracts to an (undirected) self-loop.
					if err := b.AddEdge(mu, mv, ws[i]); err != nil {
						return nil, err
					}
					continue
				}
			}
			if err := b.AddEdge(mu, mv, ws[i]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// Edges returns a copy of all stored arcs in CSR order. Intended for tests
// and serialization, not hot paths.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.targets))
	for u := 0; u < g.n; u++ {
		nb, ws := g.OutNeighbors(u), g.OutWeights(u)
		for i, v := range nb {
			out = append(out, Edge{uint32(u), v, ws[i]})
		}
	}
	return out
}
