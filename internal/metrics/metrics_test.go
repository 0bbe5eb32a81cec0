package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/rng"
)

func TestNMIIdentical(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 2, 2}
	v, err := NMI(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI(a,a) = %g, want 1", v)
	}
}

func TestNMIRelabeling(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 2, 2}
	b := []uint32{5, 5, 9, 9, 1, 1}
	v, err := NMI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("NMI under relabeling = %g, want 1", v)
	}
}

func TestNMIIndependent(t *testing.T) {
	// A checkerboard assignment: knowing A gives no information about B.
	var a, b []uint32
	for i := 0; i < 400; i++ {
		a = append(a, uint32(i%2))
		b = append(b, uint32((i/2)%2))
	}
	v, err := NMI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.01 {
		t.Fatalf("NMI of independent labelings = %g, want ~0", v)
	}
}

func TestNMISymmetric(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 1, 2}
	b := []uint32{0, 1, 1, 1, 2, 2}
	v1, _ := NMI(a, b)
	v2, _ := NMI(b, a)
	if math.Abs(v1-v2) > 1e-12 {
		t.Fatalf("NMI not symmetric: %g vs %g", v1, v2)
	}
	if v1 <= 0 || v1 >= 1 {
		t.Fatalf("partial agreement NMI = %g, want in (0,1)", v1)
	}
}

func TestNMIErrorsAndTrivia(t *testing.T) {
	if _, err := NMI([]uint32{0}, []uint32{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	v, err := NMI(nil, nil)
	if err != nil || v != 1 {
		t.Fatalf("empty NMI = (%g,%v)", v, err)
	}
	v, err = NMI([]uint32{0, 0}, []uint32{3, 3})
	if err != nil || v != 1 {
		t.Fatalf("both-trivial NMI = %g, want 1", v)
	}
}

func TestARIIdenticalAndRandom(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 2, 2}
	v, err := ARI(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("ARI(a,a) = %g", v)
	}
	// Independent labelings: ARI near 0.
	r := rng.New(1)
	var x, y []uint32
	for i := 0; i < 2000; i++ {
		x = append(x, uint32(r.Intn(4)))
		y = append(y, uint32(r.Intn(4)))
	}
	v, err = ARI(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v) > 0.05 {
		t.Fatalf("ARI of random labelings = %g, want ~0", v)
	}
}

func TestPairwiseF1(t *testing.T) {
	truth := []uint32{0, 0, 0, 1, 1, 1}
	// Perfect prediction.
	p, r, f1, err := PairwiseF1(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 || r != 1 || f1 != 1 {
		t.Fatalf("perfect F1 = %g/%g/%g", p, r, f1)
	}
	// All singletons: precision 1 (vacuous), recall 0.
	singles := []uint32{0, 1, 2, 3, 4, 5}
	p, r, f1, err = PairwiseF1(singles, truth)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 || r != 0 || f1 != 0 {
		t.Fatalf("singleton F1 = %g/%g/%g, want 1/0/0", p, r, f1)
	}
	// Everything merged: recall 1, precision = truthPairs/allPairs = 6/15.
	merged := []uint32{0, 0, 0, 0, 0, 0}
	p, r, _, err = PairwiseF1(merged, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 || math.Abs(p-6.0/15.0) > 1e-12 {
		t.Fatalf("merged F1: p=%g r=%g", p, r)
	}
}

func TestConductance(t *testing.T) {
	// Two triangles with one bridge: each triangle has vol 7 (6 internal
	// half-edges + 1 bridge end), cut 1 → conductance 1/7.
	b := graph.NewBuilder(6, false)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		_ = b.AddEdge(e[0], e[1], 1)
	}
	g := b.Build()
	cs, err := Conductance(g, []uint32{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range cs {
		if math.Abs(v-1.0/7.0) > 1e-12 {
			t.Fatalf("conductance[%d] = %g, want 1/7", c, v)
		}
	}
	mean, err := MeanConductance(g, []uint32{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1.0/7.0) > 1e-12 {
		t.Fatalf("mean conductance %g", mean)
	}
	// A good partition has lower conductance than a bad one.
	bad, err := MeanConductance(g, []uint32{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad <= mean {
		t.Fatalf("bad partition conductance %g <= good %g", bad, mean)
	}
}

func TestConductanceValidation(t *testing.T) {
	g := graph.NewBuilder(3, false).Build()
	if _, err := Conductance(g, []uint32{0}); err == nil {
		t.Fatal("short membership accepted")
	}
	cs, err := Conductance(g, []uint32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cs {
		if v != 0 {
			t.Fatal("edgeless graph should have zero conductance")
		}
	}
}

func TestQuickNMIBounds(t *testing.T) {
	r := rng.New(7)
	f := func(n uint8, ka, kb uint8) bool {
		size := int(n)%50 + 2
		a := make([]uint32, size)
		b := make([]uint32, size)
		for i := range a {
			a[i] = uint32(r.Intn(int(ka)%5 + 1))
			b[i] = uint32(r.Intn(int(kb)%5 + 1))
		}
		v, err := NMI(a, b)
		return err == nil && v >= -1e-12 && v <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsOnPlantedLFR(t *testing.T) {
	// Recovering the planted partition on an easy LFR graph should score
	// high on every metric; a random labeling should not.
	g, planted, err := gen.LFR(gen.DefaultLFR(500, 0.1), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := NMI(planted, planted)
	if err != nil || math.Abs(nmi-1) > 1e-9 {
		t.Fatalf("planted self-NMI %g", nmi)
	}
	r := rng.New(13)
	random := make([]uint32, g.N())
	for i := range random {
		random[i] = uint32(r.Intn(10))
	}
	nmiRand, err := NMI(random, planted)
	if err != nil {
		t.Fatal(err)
	}
	if nmiRand > 0.2 {
		t.Fatalf("random labeling NMI %g suspiciously high", nmiRand)
	}
}
