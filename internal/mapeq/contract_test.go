package mapeq

import (
	"context"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/sched"
)

// equalFlowsBitwise fails the test unless a and b are structurally identical
// graphs with bit-identical float payloads.
func equalFlowsBitwise(t *testing.T, a, b *Flow, label string) {
	t.Helper()
	if a.G.N() != b.G.N() || a.G.M() != b.G.M() {
		t.Fatalf("%s: graph shape differs: %dx%d vs %dx%d", label, a.G.N(), a.G.M(), b.G.N(), b.G.M())
	}
	ae, be := a.G.Edges(), b.G.Edges()
	for i := range ae {
		if ae[i].From != be[i].From || ae[i].To != be[i].To ||
			math.Float64bits(ae[i].Weight) != math.Float64bits(be[i].Weight) {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", label, i, ae[i], be[i])
		}
	}
	pairs := []struct {
		name string
		x, y []float64
	}{
		{"NodeFlow", a.NodeFlow, b.NodeFlow},
		{"TeleOut", a.TeleOut, b.TeleOut},
		{"Land", a.Land, b.Land},
		{"OutFlow", a.OutFlow, b.OutFlow},
		{"InFlow", a.InFlow, b.InFlow},
		{"ArcOut", a.ArcOut, b.ArcOut},
		{"ArcIn", a.ArcIn, b.ArcIn},
	}
	for _, p := range pairs {
		if len(p.x) != len(p.y) {
			t.Fatalf("%s: %s length %d vs %d", label, p.name, len(p.x), len(p.y))
		}
		for i := range p.x {
			if math.Float64bits(p.x[i]) != math.Float64bits(p.y[i]) {
				t.Fatalf("%s: %s[%d] = %x vs %x", label, p.name, i,
					math.Float64bits(p.x[i]), math.Float64bits(p.y[i]))
			}
		}
	}
}

// randomMembership assigns each vertex one of k modules, ensuring every
// module is populated.
func randomMembership(n, k int, r *rng.RNG) []uint32 {
	mem := make([]uint32, n)
	for i := range mem {
		mem[i] = uint32(r.Intn(k))
	}
	for m := 0; m < k && m < n; m++ {
		mem[m] = uint32(m)
	}
	return mem
}

// TestContractParallelMatchesSerial pins the scheduler-independence claim:
// contraction over a worker pool must produce a bit-identical Flow to the
// serial path, for both undirected and directed inputs.
func TestContractParallelMatchesSerial(t *testing.T) {
	r := rng.New(7)
	ug, _, err := gen.LFR(gen.DefaultLFR(400, 0.3), r)
	if err != nil {
		t.Fatal(err)
	}
	uflow, err := NewUndirectedFlow(ug)
	if err != nil {
		t.Fatal(err)
	}

	dg, err := gen.RMAT(8, 8, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pagerank.ComputeContext(context.Background(), dg, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dflow, err := NewDirectedFlow(dg, pr.Rank, 0.85)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		flow *Flow
	}{
		{"undirected", uflow},
		{"directed", dflow},
	} {
		k := 23
		mem := randomMembership(tc.flow.G.N(), k, rng.New(11))
		serial, err := tc.flow.Contract(mem, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			pool := sched.NewPool(workers)
			par, err := tc.flow.ContractParallel(mem, k, pool)
			pool.Close()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			equalFlowsBitwise(t, serial, par, tc.name)
		}
	}
}

// TestContractParallelValidation checks the error paths.
func TestContractParallelValidation(t *testing.T) {
	g := twoTriangles(t)
	f, err := NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Contract([]uint32{0}, 1); err == nil {
		t.Fatal("short membership accepted")
	}
	if _, err := f.Contract([]uint32{0, 0, 0, 1, 1, 9}, 2); err == nil {
		t.Fatal("out-of-range module accepted")
	}
}
