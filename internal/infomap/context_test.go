package infomap

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/sched"
)

func TestRunContextCanceledBeforeStart(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30}, PIn: 0.3, POut: 0.02}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunContextDeadlinePromptNoLeak(t *testing.T) {
	// A graph large enough that the run takes well beyond the deadline.
	g, _, err := gen.SBM(gen.SBMParams{
		Sizes: []int{400, 400, 400, 400, 400}, PIn: 0.1, POut: 0.005}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	opt := DefaultOptions()
	opt.Workers = 4
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = RunContext(ctx, g, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	// "Promptly": cancellation is observed at sweep boundaries, so the run
	// must end well before an uncancelled run would (seconds on this graph).
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// All worker goroutines finish their sweep before Run returns; give the
	// scheduler a moment and verify nothing leaked.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestPageRankContextCanceled(t *testing.T) {
	// Directed graphs exercise the power-iteration path with its per-
	// iteration cancellation check (threaded through RunContext).
	b := graph.NewBuilder(500, true)
	for v := 0; v < 500; v++ {
		if err := b.AddEdge(uint32(v), uint32((v+1)%500), 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(uint32(v), uint32((v*7+13)%500), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunHierarchicalContextCanceled(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30}, PIn: 0.3, POut: 0.02}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunHierarchicalContext(ctx, g, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// panicAccum is an Accumulator that panics on first use — a stand-in for a
// buggy backend, exercising the worker panic-to-error recovery.
type panicAccum struct{}

func (panicAccum) Accumulate(uint32, float64)       { panic("injected accumulator fault") }
func (panicAccum) Lookup(uint32) (float64, bool)    { return 0, false }
func (panicAccum) Gather(dst []accum.KV) []accum.KV { return dst }
func (panicAccum) Reset()                           {}
func (panicAccum) Stats() accum.Stats               { return accum.Stats{} }

func TestWorkerPanicBecomesError(t *testing.T) {
	g, _, err := gen.SBM(gen.SBMParams{Sizes: []int{20, 20}, PIn: 0.4, POut: 0.05}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	flow, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	membership := make([]uint32, n)
	for i := range membership {
		membership[i] = uint32(i)
	}
	st, err := mapeq.NewState(flow, membership, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, nWorkers := range []int{1, 4} {
		workers := make([]*Scanner, nWorkers)
		for i := range workers {
			workers[i] = &Scanner{out: panicAccum{}, in: panicAccum{}}
		}
		pool := sched.NewPool(nWorkers)
		_, _, err := optimizeLevel(context.Background(), st, flow, workers, pool,
			DefaultOptions(), newRand(1), 0, &Result{}, nil, nil)
		pool.Close()
		if err == nil {
			t.Fatalf("workers=%d: injected panic not surfaced", nWorkers)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: unexpected error %v", nWorkers, err)
		}
	}
}
