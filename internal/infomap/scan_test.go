package infomap

import (
	"context"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
)

// oracleScan is a map-based candidate scan: two Go maps of per-module flow,
// candidates in first-seen order, the one tie-break rule (better). It is the
// reference every backend's Scanner must match.
func oracleScan(st *mapeq.State, f *mapeq.Flow, v int) (uint32, bool) {
	g := f.G
	old := st.Module(v)
	outW := map[uint32]float64{}
	inW := map[uint32]float64{}
	var keys []uint32
	collect := func(nbs []uint32, flows []float64, lo int, into map[uint32]float64) {
		for j := range nbs {
			t := int(nbs[j])
			if t == v {
				continue
			}
			m := st.Module(t)
			_, seenOut := outW[m]
			_, seenIn := inW[m]
			if !seenOut && !seenIn {
				keys = append(keys, m)
			}
			into[m] += flows[lo+j]
		}
	}
	lo, _ := g.OutRange(v)
	collect(g.OutNeighbors(v), f.OutFlow, lo, outW)
	ilo, _ := g.InRange(v)
	collect(g.InNeighbors(v), f.InFlow, ilo, inW)
	if len(keys) == 0 {
		return old, false
	}
	dep := st.Prepare(f.View(v), outW[old], inW[old])
	best, bestD := old, 0.0
	for _, m := range keys {
		if m == old {
			continue
		}
		if d := dep.Delta(m, outW[m], inW[m]); better(best, bestD, m, d, old) {
			best, bestD = m, d
		}
	}
	return best, best != old && bestD < 0
}

var allKinds = []AccumKind{Baseline, GoMap, HashGraph, ASA}

// scanners builds one Scanner per accumulator backend.
func scanners(t *testing.T, hint int) map[AccumKind]*Scanner {
	t.Helper()
	out := make(map[AccumKind]*Scanner, len(allKinds))
	for _, kind := range allKinds {
		opt := DefaultOptions()
		opt.Kind = kind
		sc, err := NewScanner(opt, hint)
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = sc
	}
	return out
}

// checkAgainstOracle compares every backend's scan of every vertex of f,
// under a random membership into k modules, with oracleScan.
func checkAgainstOracle(t *testing.T, name string, f *mapeq.Flow, k int, exitOffset float64, seed uint64) {
	t.Helper()
	n := f.G.N()
	r := rng.New(seed)
	mem := make([]uint32, n)
	for i := range mem {
		mem[i] = uint32(r.Intn(k))
	}
	st, err := mapeq.NewState(f, mem, k)
	if err != nil {
		t.Fatal(err)
	}
	st.SetExitOffset(exitOffset)
	scs := scanners(t, f.G.MaxDegree())
	improving := 0
	for v := 0; v < n; v++ {
		want, wantOK := oracleScan(st, f, v)
		if wantOK {
			improving++
		}
		for _, kind := range allKinds {
			got, _, ok := scs[kind].FindBestCommunity(st, f, v)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("%s/%v: vertex %d: scan (%d, %v), oracle (%d, %v)",
					name, kind, v, got, ok, want, wantOK)
			}
		}
	}
	if improving == 0 {
		t.Fatalf("%s: no vertex had an improving move; the comparison is vacuous", name)
	}
	for _, kind := range allKinds {
		if w := scs[kind].Stats().Work; w.VerticesProcessed != uint64(n) || w.CandidatesEvaluated == 0 {
			t.Fatalf("%s/%v: scan work not counted: %+v", name, kind, w)
		}
	}
}

// TestScanMatchesMapOracle: on undirected, directed (recorded and
// unrecorded teleportation) and module sub-flows under random memberships,
// and on hand-built exact ΔL ties, every backend's Scanner returns the map
// oracle's target.
func TestScanMatchesMapOracle(t *testing.T) {
	sbm, _, err := gen.SBM(gen.SBMParams{Sizes: []int{30, 30, 30}, PIn: 0.3, POut: 0.03}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	undirected, err := mapeq.NewUndirectedFlow(sbm)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(8, 8, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pagerank.ComputeContext(context.Background(), rmat, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	damping := pagerank.DefaultConfig().Damping
	recorded, err := mapeq.NewDirectedFlow(rmat, pr.Rank, damping)
	if err != nil {
		t.Fatal(err)
	}
	unrecorded, err := mapeq.NewDirectedFlowUnrecorded(rmat, pr.Rank, damping)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int, 0, rmat.N()/2)
	for v := 0; v < rmat.N(); v += 2 {
		members = append(members, v)
	}
	sub, err := subFlow(recorded, recorded.TeleTotal(), members)
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= 3; seed++ {
		checkAgainstOracle(t, "undirected", undirected, 12, 0, seed)
		checkAgainstOracle(t, "directed", recorded, 40, 0, seed)
		checkAgainstOracle(t, "unrecorded", unrecorded, 40, 0, seed)
		checkAgainstOracle(t, "extin", sub, 20, 0.05, seed)
	}
	checkExactTies(t)
}

// checkExactTies hand-builds an exact ΔL tie: vertex 0 links with equal
// weight to two mirror-image modules {1,3} and {2,4}. Rows are sorted, so
// vertex 0 always accumulates module {1,3} first; swapping which of the two
// carries the smaller ID swaps the order the tables see them in, and every
// backend and the oracle must pick the smaller ID either way.
func checkExactTies(t *testing.T) {
	b := graph.NewBuilder(5, false)
	for _, e := range [][3]float64{{0, 1, 3}, {0, 2, 3}, {1, 3, 1}, {2, 4, 1}} {
		if err := b.AddEdge(uint32(e[0]), uint32(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	f, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][2]uint32{{2, 7}, {7, 2}} {
		a, c := ids[0], ids[1]
		st, err := mapeq.NewState(f, []uint32{0, a, c, a, c}, 8)
		if err != nil {
			t.Fatal(err)
		}
		dep := st.Prepare(f.View(0), 0, 0)
		da, dc := dep.Delta(a, f.OutFlow[0], f.InFlow[0]), dep.Delta(c, f.OutFlow[1], f.InFlow[1])
		if da != dc || da >= 0 {
			t.Fatalf("not an improving exact tie: ΔL %v vs %v", da, dc)
		}
		want := min(a, c)
		if got, ok := oracleScan(st, f, 0); !ok || got != want {
			t.Fatalf("oracle picked (%d, %v), want %d", got, ok, want)
		}
		for kind, sc := range scanners(t, g.MaxDegree()) {
			if got, d, ok := sc.FindBestCommunity(st, f, 0); !ok || got != want || d != da {
				t.Fatalf("%v, modules %v: picked (%d, %v, %v), want %d", kind, ids, got, d, ok, want)
			}
		}
	}
}
