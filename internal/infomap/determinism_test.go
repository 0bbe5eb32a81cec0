package infomap

import (
	"fmt"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

// lfrPair builds an undirected LFR benchmark graph and a directed variant of
// it (both arcs of every edge, so PageRank and the directed code paths run
// on a graph with real community structure).
func lfrPair(t *testing.T) (und, dir *graph.Graph) {
	t.Helper()
	g, _, err := gen.LFR(gen.DefaultLFR(600, 0.25), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(g.N(), true)
	for _, e := range g.Edges() {
		if e.From > e.To {
			continue // undirected Edges lists both orientations; keep one
		}
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
		if e.From != e.To {
			if err := b.AddEdge(e.To, e.From, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g, b.Build()
}

// TestDeterministicAcrossWorkers is the scheduler's central correctness
// claim: for a fixed seed, the result — membership and the exact codelength
// bits — must not depend on the worker count or the (nondeterministic)
// steal schedule. One worker is the reference; every other worker count,
// and a repeat run of each, must reproduce it bit for bit.
func TestDeterministicAcrossWorkers(t *testing.T) {
	und, dir := lfrPair(t)
	for _, kind := range []AccumKind{Baseline, ASA, HashGraph} {
		for _, tc := range []struct {
			name string
			g    *graph.Graph
		}{
			{"undirected", und},
			{"directed", dir},
		} {
			t.Run(fmt.Sprintf("%v/%s", kind, tc.name), func(t *testing.T) {
				opt := DefaultOptions()
				opt.Kind = kind
				opt.Workers = 1
				ref, err := Run(tc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2, 4, 8} {
					for rep := 0; rep < 2; rep++ {
						opt := DefaultOptions()
						opt.Kind = kind
						opt.Workers = workers
						res, err := Run(tc.g, opt)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("workers=%d rep=%d", workers, rep)
						if math.Float64bits(res.Codelength) != math.Float64bits(ref.Codelength) {
							t.Fatalf("%s: codelength %.17g != reference %.17g",
								label, res.Codelength, ref.Codelength)
						}
						for v := range res.Membership {
							if res.Membership[v] != ref.Membership[v] {
								t.Fatalf("%s: membership diverges at vertex %d: %d != %d",
									label, v, res.Membership[v], ref.Membership[v])
							}
						}
					}
				}
			})
		}
	}
}

// TestHashGraphMatchesBaseline: every accumulator backend computes the same
// sums, so HashGraph runs must partition byte-identically to the chained
// Baseline table — across worker counts and steal schedules. This is the
// cross-backend half of the determinism contract: switching the accumulator
// is a pure performance decision, never a quality one.
func TestHashGraphMatchesBaseline(t *testing.T) {
	und, dir := lfrPair(t)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"undirected", und},
		{"directed", dir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Kind = Baseline
			opt.Workers = 1
			ref, err := Run(tc.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				opt := DefaultOptions()
				opt.Kind = HashGraph
				opt.Workers = workers
				res, err := Run(tc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				if math.Float64bits(res.Codelength) != math.Float64bits(ref.Codelength) {
					t.Fatalf("%s: hashgraph codelength %.17g != baseline %.17g",
						label, res.Codelength, ref.Codelength)
				}
				for v := range res.Membership {
					if res.Membership[v] != ref.Membership[v] {
						t.Fatalf("%s: membership diverges from baseline at vertex %d",
							label, v)
					}
				}
				st := res.TotalStats()
				if st.ChainHops != 0 || st.Rehashes != 0 {
					t.Fatalf("%s: hashgraph reported probe events: %+v", label, st)
				}
			}
		})
	}
}

// TestCapacityHintAvoidsRehash: worker accumulators are sized from the
// graph's max degree, so a single-level Baseline run — where every session
// holds at most maxdeg distinct keys — must never rehash. A hub graph (one
// vertex adjacent to everything) is the worst case the old fixed hint of 64
// lost on.
func TestCapacityHintAvoidsRehash(t *testing.T) {
	const n = 600
	b := graph.NewBuilder(n, false)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(0, uint32(v), 1); err != nil {
			t.Fatal(err)
		}
		// A sparse ring so communities beyond the star exist.
		if err := b.AddEdge(uint32(v), uint32(v%(n-1)+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.MaxDegree() < n-1 {
		t.Fatalf("hub degree %d, want >= %d", g.MaxDegree(), n-1)
	}
	opt := DefaultOptions()
	opt.Kind = Baseline
	opt.MaxLevels = 1 // contraction could exceed the leaf-level degree bound
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.TotalStats(); st.Rehashes != 0 {
		t.Fatalf("degree-derived capacity hint still rehashed %d times: %+v", st.Rehashes, st)
	}
}

// TestDeterministicRepeatedRuns re-runs the same configuration several times
// at a multi-worker setting where steal schedules genuinely vary.
func TestDeterministicRepeatedRuns(t *testing.T) {
	und, _ := lfrPair(t)
	opt := DefaultOptions()
	opt.Workers = 4
	first, err := Run(und, opt)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		res, err := Run(und, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Codelength) != math.Float64bits(first.Codelength) {
			t.Fatalf("rep %d: codelength drifted: %.17g != %.17g", rep, res.Codelength, first.Codelength)
		}
		for v := range res.Membership {
			if res.Membership[v] != first.Membership[v] {
				t.Fatalf("rep %d: membership diverges at vertex %d", rep, v)
			}
		}
	}
}
