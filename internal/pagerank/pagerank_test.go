package pagerank

import (
	"context"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

// ring returns an undirected cycle of n vertices.
func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n, false)
	for u := 0; u < n; u++ {
		if err := b.AddEdge(uint32(u), uint32((u+1)%n), 1); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestUndirectedClosedForm(t *testing.T) {
	// Path 0-1-2: strengths 1,2,1, total 4.
	b := graph.NewBuilder(3, false)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	g := b.Build()
	res := Undirected(g)
	want := []float64{0.25, 0.5, 0.25}
	for i, w := range want {
		if math.Abs(res.Rank[i]-w) > 1e-12 {
			t.Fatalf("rank[%d] = %g, want %g", i, res.Rank[i], w)
		}
	}
}

func TestComputeUsesClosedFormForUndirected(t *testing.T) {
	g := ring(10)
	res, err := ComputeContext(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("undirected graph ran %d power iterations", res.Iterations)
	}
	for _, p := range res.Rank {
		if math.Abs(p-0.1) > 1e-12 {
			t.Fatalf("ring rank %g, want 0.1", p)
		}
	}
}

func TestDirectedCycleUniform(t *testing.T) {
	n := 5
	b := graph.NewBuilder(n, true)
	for u := 0; u < n; u++ {
		_ = b.AddEdge(uint32(u), uint32((u+1)%n), 1)
	}
	g := b.Build()
	res, err := ComputeContext(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Rank {
		if math.Abs(p-0.2) > 1e-9 {
			t.Fatalf("cycle rank[%d] = %g, want 0.2", i, p)
		}
	}
	if math.Abs(sum(res.Rank)-1) > 1e-9 {
		t.Fatalf("ranks sum to %g", sum(res.Rank))
	}
}

func TestDanglingVertices(t *testing.T) {
	// 0 -> 1, 1 is a sink.
	b := graph.NewBuilder(2, true)
	_ = b.AddEdge(0, 1, 1)
	g := b.Build()
	res, err := ComputeContext(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum(res.Rank)-1) > 1e-9 {
		t.Fatalf("ranks sum to %g with dangling vertex", sum(res.Rank))
	}
	if res.Rank[1] <= res.Rank[0] {
		t.Fatalf("sink should outrank source: %v", res.Rank)
	}
}

func TestHubAttractsRank(t *testing.T) {
	// Star pointing to center: center should dominate.
	n := 11
	b := graph.NewBuilder(n, true)
	for u := 1; u < n; u++ {
		_ = b.AddEdge(uint32(u), 0, 1)
		_ = b.AddEdge(0, uint32(u), 1) // return edges so nothing is dangling
	}
	g := b.Build()
	res, err := ComputeContext(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u < n; u++ {
		if res.Rank[0] <= res.Rank[u] {
			t.Fatalf("center rank %g <= leaf rank %g", res.Rank[0], res.Rank[u])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rng.New(31)
	g, err := gen.RMAT(11, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	serial, err := ComputeContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := ComputeContext(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Rank {
		if math.Abs(serial.Rank[i]-par.Rank[i]) > 1e-9 {
			t.Fatalf("parallel mismatch at %d: %g vs %g", i, serial.Rank[i], par.Rank[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := ring(5)
	bad := DefaultConfig()
	bad.Damping = 1.5
	if _, err := ComputeContext(context.Background(), g, bad); err == nil {
		t.Fatal("damping 1.5 accepted")
	}
	bad = DefaultConfig()
	bad.MaxIter = 0
	if _, err := ComputeContext(context.Background(), g, bad); err == nil {
		t.Fatal("MaxIter 0 accepted")
	}
	bad = DefaultConfig()
	bad.Tolerance = 0
	if _, err := ComputeContext(context.Background(), g, bad); err == nil {
		t.Fatal("Tolerance 0 accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, true).Build()
	res, err := ComputeContext(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rank) != 0 {
		t.Fatal("empty graph produced ranks")
	}
	// Undirected empty-weight graph: uniform.
	g2 := graph.NewBuilder(4, false).Build()
	res2 := Undirected(g2)
	for _, p := range res2.Rank {
		if math.Abs(p-0.25) > 1e-12 {
			t.Fatalf("edgeless rank %g, want uniform 0.25", p)
		}
	}
}

func TestConvergenceReported(t *testing.T) {
	r := rng.New(33)
	g, _ := gen.RMAT(9, 4, r)
	res, err := ComputeContext(context.Background(), g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.Iterations >= 200 {
		t.Fatalf("suspicious iteration count %d", res.Iterations)
	}
	if res.Delta >= 1e-11 {
		t.Fatalf("did not converge: delta %g", res.Delta)
	}
}
