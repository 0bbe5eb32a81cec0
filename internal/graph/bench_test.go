package graph_test

import (
	"bytes"
	"testing"

	"github.com/asamap/asamap/internal/dataset"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

var sinkGraph *graph.Graph

// BenchmarkIngest times graph construction, which every input path shares:
// parsing an edge list (the soc-Pokec replica at 1/128 scale, the batch
// benchmark's input), recording its edges in shuffled order and freezing
// them into CSR, and applying a
// 3-op delta to a 5,000-vertex LFR graph (one evolving-graph step). Each
// is linear in the graph; a return to O(m log m) construction shows here.
func BenchmarkIngest(b *testing.B) {
	spec, err := dataset.ByName("soc-Pokec")
	if err != nil {
		b.Fatal(err)
	}
	pokec, err := spec.Generate(128, 1)
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := pokec.WriteEdgeList(&text); err != nil {
		b.Fatal(err)
	}

	b.Run("ReadEdgeList", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			g, _, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), false)
			if err != nil {
				b.Fatal(err)
			}
			sinkGraph = g
		}
	})

	b.Run("Build", func(b *testing.B) {
		// The replica's edges, once each, in a shuffled order.
		var edges []graph.Edge
		for _, e := range pokec.Edges() {
			if e.From <= e.To {
				edges = append(edges, e)
			}
		}
		r := rng.New(7)
		for i := len(edges) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bl := graph.NewBuilder(pokec.N(), false)
			bl.Reserve(2 * len(edges))
			for _, e := range edges {
				if err := bl.AddEdge(e.From, e.To, e.Weight); err != nil {
					b.Fatal(err)
				}
			}
			sinkGraph = bl.Build()
		}
	})

	b.Run("DeltaApply", func(b *testing.B) {
		lfr, _, err := gen.LFR(gen.DefaultLFR(5000, 0.3), rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		// Two new edges and the removal of an existing one.
		nb := lfr.OutNeighbors(0)
		d := &graph.Delta{Ops: []graph.DeltaEdge{
			{Op: graph.DeltaAdd, From: 1, To: 4999, Weight: 1},
			{Op: graph.DeltaAdd, From: 2500, To: 17, Weight: 1},
			{Op: graph.DeltaRemove, From: 0, To: nb[len(nb)/2]},
		}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := d.Apply(lfr)
			if err != nil {
				b.Fatal(err)
			}
			sinkGraph = g
		}
	})
}
