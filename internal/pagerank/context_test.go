package pagerank

import (
	"context"
	"errors"
	"testing"

	"github.com/asamap/asamap/internal/graph"
)

func directedRing(n int) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for v := 0; v < n; v++ {
		_ = b.AddEdge(uint32(v), uint32((v+1)%n), 1)
	}
	return b.Build()
}

func TestComputeContextCanceled(t *testing.T) {
	g := directedRing(100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeContext(ctx, g, DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
