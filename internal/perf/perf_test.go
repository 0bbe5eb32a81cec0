package perf

import (
	"math"
	"testing"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/asa"
	"github.com/asamap/asamap/internal/hashtab"
	"github.com/asamap/asamap/internal/rng"
)

func TestMachines(t *testing.T) {
	n, b := Native(), Baseline()
	if n.L3MB != 20 || b.L3MB != 16 {
		t.Fatalf("L3 sizes: native %d baseline %d, want 20/16 (Table II)", n.L3MB, b.L3MB)
	}
	if n.FreqGHz != 2.6 || b.FreqGHz != 2.6 {
		t.Fatal("clock must be 2.6 GHz per Table II")
	}
	if b.MemMissLatency <= n.MemMissLatency {
		t.Fatal("baseline (smaller L3) should have higher average miss latency")
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Instructions: 100, Cycles: 150, Branches: 10, Mispredicts: 2, MemStalls: 20}
	b := a
	a.Add(b)
	if a.Instructions != 200 || a.Cycles != 300 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if math.Abs(b.CPI()-1.5) > 1e-12 {
		t.Fatalf("CPI = %g", b.CPI())
	}
	var empty Counters
	if empty.CPI() != 0 {
		t.Fatal("empty counters should report 0 rates")
	}
}

func TestSeconds(t *testing.T) {
	c := Counters{Cycles: 2.6e9}
	if s := c.Seconds(Native()); math.Abs(s-1.0) > 1e-12 {
		t.Fatalf("2.6G cycles at 2.6GHz = %g s, want 1", s)
	}
}

func TestHashCostMonotoneInEvents(t *testing.T) {
	m := DefaultModel(Baseline())
	small := m.HashCost(accum.Stats{Accumulates: 100, Inserts: 10})
	big := m.HashCost(accum.Stats{Accumulates: 200, Inserts: 10})
	if big.Instructions <= small.Instructions || big.Cycles <= small.Cycles {
		t.Fatal("more events must cost more")
	}
	withChains := m.HashCost(accum.Stats{Accumulates: 100, Inserts: 10, ChainHops: 500})
	if withChains.Cycles <= small.Cycles || withChains.Mispredicts <= small.Mispredicts {
		t.Fatal("chain hops must add cycles and mispredictions")
	}
}

func TestAccumCostDispatch(t *testing.T) {
	m := DefaultModel(Baseline())
	st := accum.Stats{Accumulates: 1000, Inserts: 100, GatheredKV: 100}
	hc, err := m.AccumCost("softhash", st)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := m.AccumCost("asa", st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AccumCost("gomap", st); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AccumCost("quantum", st); err == nil {
		t.Fatal("unknown accumulator accepted")
	}
	if ac.Cycles >= hc.Cycles {
		t.Fatalf("ASA (%g cycles) should be cheaper than software hash (%g) on identical events",
			ac.Cycles, hc.Cycles)
	}
	if ac.Instructions >= hc.Instructions {
		t.Fatal("ASA should retire fewer instructions")
	}
	if ac.Mispredicts >= hc.Mispredicts {
		t.Fatal("ASA should mispredict less")
	}
}

// TestPaperShapeOnRealEvents drives the two real accumulator implementations
// with an identical power-law workload and checks that the modeled hash-
// operation speedup lands in the paper's observed band (3.28–5.56×,
// generously widened to 2.5–8× to keep the test robust to workload noise).
func TestPaperShapeOnRealEvents(t *testing.T) {
	r := rng.New(99)
	soft := hashtab.New(16)
	cam := asa.MustNew(asa.DefaultConfig())

	var buf []accum.KV
	for vertex := 0; vertex < 3000; vertex++ {
		deg := r.PowerLaw(2, 400, 2.3)
		distinct := deg/2 + 1
		for i := 0; i < deg; i++ {
			k := uint32(r.Intn(distinct))
			soft.Accumulate(k, 1.0)
			cam.Accumulate(k, 1.0)
		}
		buf = soft.Gather(buf[:0])
		buf = cam.Gather(buf[:0])
		soft.Reset()
		cam.Reset()
	}

	m := DefaultModel(Baseline())
	hc := m.HashCost(soft.Stats())
	ac := m.ASACost(cam.Stats())
	speedup := hc.Cycles / ac.Cycles
	if speedup < 2.5 || speedup > 8 {
		t.Fatalf("modeled hash-op speedup %.2f×, want within paper band ~3.3–5.6×", speedup)
	}
	if mp := ac.Mispredicts / hc.Mispredicts; mp > 0.6 {
		t.Fatalf("ASA retains %.0f%% of mispredictions; paper reports ~59%% reduction", mp*100)
	}
	if in := ac.Instructions / hc.Instructions; in > 0.6 {
		t.Fatalf("ASA retains %.0f%% of hash instructions", in*100)
	}
}

func TestKernelCost(t *testing.T) {
	m := DefaultModel(Native())
	w := KernelWork{ArcsProcessed: 1000, CandidatesEvaluated: 100, VerticesProcessed: 50, MovesApplied: 20}
	c := m.KernelCost(w)
	if c.Instructions == 0 || c.Cycles == 0 {
		t.Fatal("kernel work costs nothing")
	}
	var w2 KernelWork
	w2.Add(w)
	w2.Add(w)
	c2 := m.KernelCost(w2)
	if math.Abs(c2.Instructions-2*c.Instructions) > 1e-9 {
		t.Fatal("kernel cost must be linear in work")
	}
	if m.KernelCost(KernelWork{}).Cycles != 0 {
		t.Fatal("zero work must cost zero")
	}
}

func TestBaselineSlowerThanNative(t *testing.T) {
	// The same events must take longer on the Baseline machine (smaller L3,
	// ZSim-flavoured core) than on Native — the sign of the error in the
	// paper's Tables III/IV.
	st := accum.Stats{Accumulates: 1e6, Inserts: 1e5, ChainHops: 3e5, GatheredKV: 1e5}
	nc := DefaultModel(Native()).HashCost(st)
	bc := DefaultModel(Baseline()).HashCost(st)
	if bc.Seconds(Baseline()) <= nc.Seconds(Native()) {
		t.Fatal("baseline machine should be slower")
	}
	ratio := bc.Seconds(Baseline()) / nc.Seconds(Native())
	if ratio > 1.35 {
		t.Fatalf("baseline/native ratio %.2f too large; paper reports ~10-16%% error", ratio)
	}
}
