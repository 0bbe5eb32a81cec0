package graph

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/asamap/asamap/internal/rng"
)

// referenceBuild is the comparison-sort construction Build replaced: sort
// every arc by (From, To), merge adjacent duplicates, then lay out the CSR.
// With weights whose sums are exact in any order it must agree with Build
// bit for bit.
func referenceBuild(n int, directed bool, pending []Edge) *Graph {
	edges := append([]Edge(nil), pending...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	merged := edges[:0]
	for _, e := range edges {
		if len(merged) > 0 {
			last := &merged[len(merged)-1]
			if last.From == e.From && last.To == e.To {
				last.Weight += e.Weight
				continue
			}
		}
		merged = append(merged, e)
	}
	g := &Graph{
		n:        n,
		directed: directed,
		offsets:  make([]int64, n+1),
		targets:  make([]uint32, len(merged)),
		weights:  make([]float64, len(merged)),
	}
	for i, e := range merged {
		g.offsets[e.From+1]++
		g.targets[i] = e.To
		g.weights[i] = e.Weight
		g.totalWeight += e.Weight
		if e.From == e.To {
			g.selfWeight += e.Weight
		}
	}
	for u := 0; u < n; u++ {
		g.offsets[u+1] += g.offsets[u]
	}
	if !directed {
		g.inOffsets, g.inTargets, g.inWeights = g.offsets, g.targets, g.weights
		return g
	}
	g.inOffsets = make([]int64, n+1)
	g.inTargets = make([]uint32, len(merged))
	g.inWeights = make([]float64, len(merged))
	for _, e := range merged {
		g.inOffsets[e.To+1]++
	}
	for u := 0; u < n; u++ {
		g.inOffsets[u+1] += g.inOffsets[u]
	}
	cursor := append([]int64(nil), g.inOffsets[:n]...)
	for _, e := range merged {
		g.inTargets[cursor[e.To]] = e.From
		g.inWeights[cursor[e.To]] = e.Weight
		cursor[e.To]++
	}
	return g
}

// randomMultigraph records m random edges with small integer weights (so
// every merge order sums exactly) on n vertices, a few of them hubs that
// take a third of all edges, with self-loops and many duplicates.
func randomMultigraph(r *rng.RNG, n, m int, directed bool) *Builder {
	b := NewBuilder(n, directed)
	hubs := 1 + n/50
	for i := 0; i < m; i++ {
		u := uint32(r.Intn(n))
		if r.Intn(3) == 0 {
			u = uint32(r.Intn(hubs))
		}
		v := uint32(r.Intn(n))
		switch r.Intn(8) {
		case 0:
			v = u // self-loop
		case 1:
			v = uint32(r.Intn(min(n, 8))) // a narrow target range makes duplicates
		}
		b.add(u, v, float64(1+r.Intn(4)))
	}
	return b
}

func sameCSR(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.n != want.n || got.directed != want.directed {
		t.Fatalf("shape: got n=%d directed=%v, want n=%d directed=%v", got.n, got.directed, want.n, want.directed)
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.targets, want.targets) || !slices.Equal(got.weights, want.weights) {
		t.Fatal("out-CSR differs from the reference build")
	}
	if !slices.Equal(got.inOffsets, want.inOffsets) || !slices.Equal(got.inTargets, want.inTargets) || !slices.Equal(got.inWeights, want.inWeights) {
		t.Fatal("in-CSR differs from the reference build")
	}
	if got.totalWeight != want.totalWeight || got.selfWeight != want.selfWeight {
		t.Fatalf("weights: got total=%g self=%g, want total=%g self=%g",
			got.totalWeight, got.selfWeight, want.totalWeight, want.selfWeight)
	}
}

func TestBuildMatchesSortReference(t *testing.T) {
	r := rng.New(14)
	for _, directed := range []bool{false, true} {
		for _, size := range []struct{ n, m int }{{1, 5}, {7, 40}, {60, 900}, {500, 20000}} {
			for rep := 0; rep < 4; rep++ {
				b := randomMultigraph(r, size.n, size.m, directed)
				pending := append([]Edge(nil), b.edges...)
				g := b.Build()
				if err := g.Validate(); err != nil {
					t.Fatalf("n=%d m=%d directed=%v: %v", size.n, size.m, directed, err)
				}
				sameCSR(t, g, referenceBuild(size.n, directed, pending))
				if !slices.Equal(b.edges, pending) {
					t.Fatal("Build changed the recorded arcs")
				}
			}
		}
	}
}

// TestBuildSumsDuplicatesInInsertionOrder pins the merge order: with 1e16
// the unit in the last place is 2, so 1e16+1+1 rounds back to 1e16 while
// 1+1+1e16 is exact. Both a short row (insertion sort) and a hub row (merge
// sort) must keep insertion order, and an undirected edge's two stored arcs
// must sum to the same bits.
func TestBuildSumsDuplicatesInInsertionOrder(t *testing.T) {
	for _, hub := range []bool{false, true} {
		for _, directed := range []bool{false, true} {
			n := 3
			if hub {
				n = 200
			}
			b := NewBuilder(n, directed)
			add := func(u, v uint32, w float64) {
				if err := b.AddEdge(u, v, w); err != nil {
					t.Fatal(err)
				}
			}
			if hub {
				// Fill row 0 with arcs in descending target order so the
				// row must be merge-sorted, interleaving the duplicates.
				for v := n - 1; v >= 3; v-- {
					add(0, uint32(v), 1)
				}
			}
			add(0, 1, 1e16)
			add(0, 2, 1)
			add(0, 1, 1)
			add(0, 2, 1)
			add(0, 1, 1)
			add(0, 2, 1e16)
			if hub {
				add(0, uint32(n-1), 1)
			}
			g := b.Build()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if w, _ := g.ArcWeight(0, 1); w != 1e16 {
				t.Errorf("hub=%v directed=%v: arc 0-1 = %.17g, want 1e16 = (1e16+1)+1", hub, directed, w)
			}
			if w, _ := g.ArcWeight(0, 2); w != 1e16+2 {
				t.Errorf("hub=%v directed=%v: arc 0-2 = %.17g, want 1e16+2 = (1+1)+1e16", hub, directed, w)
			}
			if !directed {
				w01, _ := g.ArcWeight(0, 1)
				w10, _ := g.ArcWeight(1, 0)
				w02, _ := g.ArcWeight(0, 2)
				w20, _ := g.ArcWeight(2, 0)
				if w01 != w10 || w02 != w20 {
					t.Errorf("hub=%v: mirrored arcs differ: %g/%g, %g/%g", hub, w01, w10, w02, w20)
				}
			}
		}
	}
}

// TestSortRowStable checks the row sort on its own against a stable
// reference, across the insertion/merge threshold.
func TestSortRowStable(t *testing.T) {
	r := rng.New(3)
	var s rowScratch
	for _, n := range []int{0, 1, 2, insertionSortMax, insertionSortMax + 1, 100, 1000, 4097} {
		type arc struct {
			v   uint32
			seq float64
		}
		arcs := make([]arc, n)
		targets := make([]uint32, n)
		weights := make([]float64, n)
		for i := range arcs {
			arcs[i] = arc{uint32(r.Intn(n/4 + 1)), float64(i)}
			targets[i], weights[i] = arcs[i].v, arcs[i].seq
		}
		slices.SortStableFunc(arcs, func(a, b arc) int { return int(a.v) - int(b.v) })
		sortRow(targets, weights, &s)
		for i, a := range arcs {
			if targets[i] != a.v || weights[i] != a.seq {
				t.Fatalf("n=%d: position %d holds (%d,%g), want (%d,%g)", n, i, targets[i], weights[i], a.v, a.seq)
			}
		}
	}
}

// bytesAllocated reports the bytes allocated by one call of f, the least
// over a few calls so that a stray background allocation cannot inflate it.
func bytesAllocated(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestBuildAllocationBound pins Build's memory: the output arrays plus O(n)
// and one row of merge scratch. An intermediate copy of the arcs (16 bytes
// each, as the comparison sort's edge slice was) would break the bound by
// megabytes. With duplicates the scatter arrays hold the pre-merge arcs and
// the output is an exactly-sized copy of the merged ones.
func TestBuildAllocationBound(t *testing.T) {
	const n, slack = 20000, 64 << 10
	for _, directed := range []bool{false, true} {
		for _, dups := range []bool{false, true} {
			r := rng.New(41)
			b := NewBuilder(n, directed)
			if dups {
				// About six copies of each arc on average.
				for i := 0; i < 200000; i++ {
					_ = b.AddEdge(uint32(r.Intn(n/10)), uint32(r.Intn(16)), 1)
				}
			} else {
				// Distinct arcs in scrambled order (7919 is prime to n-1,
				// so no two strides meet), with one unsorted hub row to
				// exercise the merge scratch.
				for u := 1; u < n; u++ {
					for k := 1; k <= 4; k++ {
						_ = b.AddEdge(uint32(u), uint32(1+(u-1+k*7919)%(n-1)), 1)
					}
				}
				for v := n - 1; v > 0; v-- {
					_ = b.AddEdge(0, uint32(v), 1)
				}
			}
			rowLen := make([]int, n)
			for _, e := range b.edges {
				rowLen[e.From]++
			}
			maxRow := slices.Max(rowLen)
			var g *Graph
			got := bytesAllocated(func() { g = b.Build() })
			arcs := uint64(g.M())
			out := 8*uint64(n+1) + 12*arcs // offsets, targets, weights
			if directed {
				out *= 2
			}
			bound := out + 8*uint64(n+1) + 12*uint64(maxRow) + slack
			if dups {
				bound += 12 * uint64(b.NumPendingEdges())
			} else if int(arcs) != b.NumPendingEdges() {
				t.Fatalf("expected a duplicate-free input: %d arcs from %d recorded", arcs, b.NumPendingEdges())
			}
			if got > bound {
				t.Errorf("directed=%v dups=%v: Build allocated %d bytes, bound %d (output arrays %d)", directed, dups, got, bound, out)
			}
		}
	}
}
