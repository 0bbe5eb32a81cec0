package gen

import (
	"math"
	"testing"

	"github.com/asamap/asamap/internal/rng"
)

func TestChungLuExpectedDegrees(t *testing.T) {
	r := rng.New(1)
	n := 2000
	degrees := make([]int, n)
	for i := range degrees {
		degrees[i] = 10
	}
	g, err := ChungLu(degrees, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.M()) / float64(n)
	if avg < 7 || avg > 13 {
		t.Fatalf("realized average degree %.2f, want ~10", avg)
	}
}

func TestChungLuPowerLaw(t *testing.T) {
	r := rng.New(2)
	degrees := PowerLawDegrees(5000, 2, 500, 2.5, r)
	g, err := ChungLu(degrees, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Power-law shape: most vertices have small degree, a few are hubs.
	hist := g.DegreeHistogram()
	small := 0
	for d := 0; d <= 8 && d < len(hist); d++ {
		small += hist[d]
	}
	if frac := float64(small) / float64(g.N()); frac < 0.5 {
		t.Fatalf("only %.2f of vertices have degree <= 8; not power-law-ish", frac)
	}
	if g.MaxOutDegree() < 20 {
		t.Fatalf("max degree %d too small; no hubs realized", g.MaxOutDegree())
	}
}

func TestChungLuZeroDegrees(t *testing.T) {
	r := rng.New(3)
	g, err := ChungLu(make([]int, 50), r)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Fatalf("all-zero degrees produced %d arcs", g.M())
	}
}

func TestChungLuNegativeDegree(t *testing.T) {
	if _, err := ChungLu([]int{1, -1}, rng.New(1)); err == nil {
		t.Fatal("negative degree accepted")
	}
}

func TestChungLuDeterminism(t *testing.T) {
	d := PowerLawDegrees(500, 2, 50, 2.5, rng.New(7))
	g1, _ := ChungLu(d, rng.New(42))
	g2, _ := ChungLu(d, rng.New(42))
	if g1.M() != g2.M() || g1.TotalWeight() != g2.TotalWeight() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestSBMPlantedStructure(t *testing.T) {
	r := rng.New(5)
	g, mem, err := SBM(SBMParams{Sizes: []int{100, 100, 100}, PIn: 0.2, POut: 0.005}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 300 || len(mem) != 300 {
		t.Fatalf("N=%d len(mem)=%d", g.N(), len(mem))
	}
	within, between := 0, 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if mem[u] == mem[v] {
				within++
			} else {
				between++
			}
		}
	}
	if within < 5*between {
		t.Fatalf("within=%d between=%d; planted structure too weak", within, between)
	}
}

func TestSBMErrors(t *testing.T) {
	if _, _, err := SBM(SBMParams{Sizes: []int{5}, PIn: 1.5}, rng.New(1)); err == nil {
		t.Fatal("pin>1 accepted")
	}
	if _, _, err := SBM(SBMParams{Sizes: []int{0}, PIn: 0.5}, rng.New(1)); err == nil {
		t.Fatal("zero community size accepted")
	}
}

func TestCliqueChain(t *testing.T) {
	g, mem, err := CliqueChain(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 cliques of C(5,2)=10 edges plus 4 bridges.
	if g.NumEdges() != 44 {
		t.Fatalf("edges = %d, want 44", g.NumEdges())
	}
	for v := 0; v < 20; v++ {
		if mem[v] != uint32(v/5) {
			t.Fatalf("membership[%d] = %d", v, mem[v])
		}
	}
	if _, _, err := CliqueChain(1, 5); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestRMAT(t *testing.T) {
	r := rng.New(6)
	g, err := RMAT(10, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 1024 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Directed() {
		t.Fatal("RMAT should be directed")
	}
	if g.M() < 1024 {
		t.Fatalf("M = %d, too few arcs", g.M())
	}
	// Skew: RMAT concentrates arcs on low-ID vertices.
	if g.MaxOutDegree() < 3*8 {
		t.Fatalf("max out-degree %d; expected skew", g.MaxOutDegree())
	}
	if _, err := RMAT(0, 8, r); err == nil {
		t.Fatal("scale=0 accepted")
	}
}

func TestLFRBasic(t *testing.T) {
	r := rng.New(8)
	p := DefaultLFR(1000, 0.2)
	g, mem, err := LFR(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 || len(mem) != 1000 {
		t.Fatalf("N=%d len(mem)=%d", g.N(), len(mem))
	}
	// Average degree near target.
	avg := float64(g.M()) / float64(g.N())
	if avg < p.AvgDegree*0.5 || avg > p.AvgDegree*1.5 {
		t.Fatalf("realized average degree %.2f, want ~%.1f", avg, p.AvgDegree)
	}
	// Realized mixing near mu.
	ext := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			if mem[u] != mem[v] {
				ext++
			}
		}
	}
	realizedMu := float64(ext) / float64(g.M())
	if math.Abs(realizedMu-p.Mu) > 0.12 {
		t.Fatalf("realized mu %.3f, want ~%.2f", realizedMu, p.Mu)
	}
	// No isolated vertices.
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(v) == 0 {
			t.Fatalf("vertex %d isolated", v)
		}
	}
}

func TestLFRCommunitySizes(t *testing.T) {
	r := rng.New(9)
	p := DefaultLFR(500, 0.1)
	_, mem, err := LFR(p, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	for _, m := range mem {
		counts[m]++
	}
	if len(counts) < 2 {
		t.Fatalf("only %d communities planted", len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 500 {
		t.Fatalf("memberships cover %d vertices", total)
	}
}

func TestLFRValidation(t *testing.T) {
	r := rng.New(10)
	bad := DefaultLFR(1000, 0.2)
	bad.Mu = 1.0
	if _, _, err := LFR(bad, r); err == nil {
		t.Fatal("mu=1 accepted")
	}
	bad = DefaultLFR(1000, 0.2)
	bad.N = 5
	if _, _, err := LFR(bad, r); err == nil {
		t.Fatal("tiny N accepted")
	}
	bad = DefaultLFR(1000, 0.2)
	bad.MinComm = 1
	if _, _, err := LFR(bad, r); err == nil {
		t.Fatal("MinComm=1 accepted")
	}
}

func TestLFRMixingSweep(t *testing.T) {
	// Realized mixing should increase with requested mu.
	r := rng.New(11)
	var last float64 = -1
	for _, mu := range []float64{0.1, 0.4, 0.7} {
		g, mem, err := LFR(DefaultLFR(800, mu), r)
		if err != nil {
			t.Fatal(err)
		}
		ext := 0
		for u := 0; u < g.N(); u++ {
			for _, v := range g.OutNeighbors(u) {
				if mem[u] != mem[v] {
					ext++
				}
			}
		}
		realized := float64(ext) / float64(g.M())
		if realized <= last {
			t.Fatalf("realized mixing not increasing: %.3f after %.3f", realized, last)
		}
		last = realized
	}
}

func TestSolveMinDegree(t *testing.T) {
	k := solveMinDegree(10, 100, 2.5)
	if k < 3 || k > 9 {
		t.Fatalf("solveMinDegree(10,100,2.5) = %d, outside sanity band", k)
	}
	// Sampling with that min should realize roughly the requested mean.
	r := rng.New(12)
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.PowerLaw(k, 100, 2.5)
	}
	mean := float64(sum) / n
	if mean < 7 || mean > 13 {
		t.Fatalf("realized mean degree %.2f, want ~10", mean)
	}
}
