// Package pagerank computes ergodic vertex visit probabilities — the
// PageRank kernel of HyPC-Map. Infomap's map equation needs the stationary
// distribution of the random walk (with teleportation) over the graph; for
// undirected graphs this distribution has the closed form p_u ∝ strength(u),
// while directed graphs require power iteration.
package pagerank

import (
	"context"
	"fmt"
	"math"

	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/sched"
)

// Config controls the power iteration.
type Config struct {
	Damping   float64 // continuation probability (1 - teleportation), typically 0.85
	Tolerance float64 // L1 convergence threshold
	MaxIter   int     // iteration cap
	Workers   int     // parallel workers; <=0 means 1
}

// DefaultConfig returns the standard parameterization used by the paper's
// PageRank kernel (damping 0.85).
func DefaultConfig() Config {
	return Config{Damping: 0.85, Tolerance: 1e-12, MaxIter: 200, Workers: 1}
}

// Result carries the stationary distribution and convergence diagnostics.
type Result struct {
	Rank       []float64 // visit probabilities, sums to 1
	Iterations int       // power iterations performed (0 for closed form)
	Delta      float64   // final L1 change
}

// Undirected returns the closed-form stationary distribution of the random
// walk on an undirected graph: p_u = strength(u) / totalWeight. Vertices with
// zero strength receive rank 1/n of the teleportation mass, matching how the
// reference Infomap smooths dangling vertices.
func Undirected(g *graph.Graph) *Result {
	n := g.N()
	rank := make([]float64, n)
	if n == 0 {
		return &Result{Rank: rank}
	}
	total := g.TotalWeight()
	if total == 0 {
		for i := range rank {
			rank[i] = 1 / float64(n)
		}
		return &Result{Rank: rank}
	}
	dangling := 0
	for u := 0; u < n; u++ {
		s := g.OutStrength(u)
		rank[u] = s / total
		if s == 0 {
			dangling++
		}
	}
	if dangling > 0 {
		// Redistribute a tiny uniform mass so the distribution stays a
		// probability vector with full support.
		eps := 1e-12
		rest := 1 - eps
		for u := 0; u < n; u++ {
			rank[u] = rank[u]*rest + eps/float64(n)
		}
	}
	return &Result{Rank: rank}
}

// Compute runs parallel power iteration with teleportation on the graph. For
// undirected graphs it short-circuits to the closed form. The returned ranks
// always sum to 1 (within floating-point error).
func Compute(g *graph.Graph, cfg Config) (*Result, error) {
	// Documented non-cancellable convenience entry point; callers who need
	// preemption use ComputeContext.
	return ComputeContext(context.Background(), g, cfg)
}

// ComputeContext is Compute under a context: cancellation is observed before
// every power iteration, returning ctx.Err() promptly. The worker goroutines
// of an iteration always run to completion first, so none leak.
func ComputeContext(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Damping <= 0 || cfg.Damping >= 1 {
		return nil, fmt.Errorf("pagerank: damping %g out of (0,1)", cfg.Damping)
	}
	if cfg.MaxIter <= 0 {
		return nil, fmt.Errorf("pagerank: MaxIter %d must be positive", cfg.MaxIter)
	}
	if cfg.Tolerance <= 0 {
		return nil, fmt.Errorf("pagerank: tolerance %g must be positive", cfg.Tolerance)
	}
	if !g.Directed() {
		return Undirected(g), nil
	}
	n := g.N()
	if n == 0 {
		return &Result{Rank: nil}, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	rank := make([]float64, n)
	next := make([]float64, n)
	outStrength := make([]float64, n)
	for u := 0; u < n; u++ {
		rank[u] = 1 / float64(n)
		outStrength[u] = g.OutStrength(u)
	}

	// Persistent worker pool with degree-aware blocks, reused across all
	// power iterations (the old per-iteration goroutine spawn paid startup
	// cost ~200 times per run). Each vertex's update walks its in-adjacency,
	// so blocks are cut on the prefix sum of in-degrees.
	var pool *sched.Pool
	var bounds []int
	if workers > 1 && n >= workers*64 {
		pool = sched.NewPool(workers)
		defer pool.Close()
		bounds = sched.WeightedBounds(n, workers*4, func(v int) int64 {
			return int64(g.InDegree(v)) + 1
		})
	}
	iterate := func(body func(lo, hi int)) {
		if pool == nil {
			body(0, n)
			return
		}
		pool.Dispatch(bounds, func(_, _, lo, hi int) error {
			body(lo, hi)
			return nil
		})
	}

	res := &Result{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Mass from dangling vertices is spread uniformly.
		danglingMass := 0.0
		for u := 0; u < n; u++ {
			if outStrength[u] == 0 {
				danglingMass += rank[u]
			}
		}
		base := (1-cfg.Damping)/float64(n) + cfg.Damping*danglingMass/float64(n)

		iterate(func(lo, hi int) {
			for v := lo; v < hi; v++ {
				sum := 0.0
				in, ws := g.InNeighbors(v), g.InWeights(v)
				for i, u := range in {
					sum += rank[u] * ws[i] / outStrength[u]
				}
				next[v] = base + cfg.Damping*sum
			}
		})

		delta := 0.0
		for u := 0; u < n; u++ {
			delta += math.Abs(next[u] - rank[u])
		}
		rank, next = next, rank
		res.Iterations = iter + 1
		res.Delta = delta
		if delta < cfg.Tolerance {
			break
		}
	}
	// Normalize defensively.
	sum := 0.0
	for _, p := range rank {
		sum += p
	}
	if sum > 0 {
		for i := range rank {
			rank[i] /= sum
		}
	}
	res.Rank = rank
	return res, nil
}
