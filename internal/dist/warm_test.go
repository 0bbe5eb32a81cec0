package dist

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/asamap/asamap/internal/fault"
)

// TestWarmStartIdentitySeedMatchesCold pins the seeding semantics exactly:
// an all-singletons warm seed is indistinguishable from a cold start, so the
// two runs must agree bit-for-bit.
func TestWarmStartIdentitySeedMatchesCold(t *testing.T) {
	g, _ := plantedGraph(t)
	cold, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Infomap.WarmStart = make([]uint32, g.N())
	for i := range opt.Infomap.WarmStart {
		opt.Infomap.WarmStart[i] = uint32(i)
	}
	warm, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(warm.Codelength) != math.Float64bits(cold.Codelength) ||
		!reflect.DeepEqual(warm.Membership, cold.Membership) {
		t.Fatalf("identity warm seed diverged from cold: L %.6f vs %.6f",
			warm.Codelength, cold.Codelength)
	}
}

// TestWarmStartFromConvergedPartition seeds the simulation with its own cold
// result: the warm run must accept the partition (or improve it) and may not
// end worse.
func TestWarmStartFromConvergedPartition(t *testing.T) {
	g, _ := plantedGraph(t)
	cold, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Infomap.WarmStart = cold.Membership
	warm, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Codelength > cold.Codelength+1e-12 {
		t.Fatalf("warm start worsened codelength: %.6f > %.6f", warm.Codelength, cold.Codelength)
	}
	if warm.NumModules != cold.NumModules {
		t.Fatalf("warm start fragmented the converged partition: %d modules vs %d",
			warm.NumModules, cold.NumModules)
	}
	// A converged seed leaves nothing to contract: the warm run finishes in
	// fewer (or equal) levels than the cold run built.
	if warm.Levels > cold.Levels {
		t.Fatalf("warm run used %d levels, cold used %d", warm.Levels, cold.Levels)
	}
}

// TestWarmStartSurvivesFaults runs the warm-seeded simulation under crash and
// drop injection: the delta-log/checkpoint recovery machinery must reproduce
// the fault-free warm result exactly, as it does for cold runs.
func TestWarmStartSurvivesFaults(t *testing.T) {
	g, _ := plantedGraph(t)
	cold, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	clean := DefaultOptions()
	clean.Infomap.WarmStart = cold.Membership
	want, err := Run(g, clean)
	if err != nil {
		t.Fatal(err)
	}
	// A warm seed converges in very few supersteps, so the crash must land at
	// the first one to exercise recovery at all.
	faulty := clean
	faulty.Fault = fault.Config{Seed: 99, DropProb: 0.2,
		InjectCrash: true, CrashRank: 1, CrashStep: 0, CrashDownFor: 1}
	got, err := Run(g, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fault.Crashes == 0 {
		t.Fatal("fault injector issued nothing; the scenario tests no recovery")
	}
	if math.Float64bits(got.Codelength) != math.Float64bits(want.Codelength) ||
		!reflect.DeepEqual(got.Membership, want.Membership) {
		t.Fatalf("faults changed the warm-started result: L %.6f vs %.6f",
			got.Codelength, want.Codelength)
	}
	if got.Comm.Recoveries == 0 && got.Fault.Crashes > 0 {
		t.Fatal("crashes issued but no checkpoint recovery recorded")
	}
}

func TestWarmStartValidation(t *testing.T) {
	g, _ := plantedGraph(t)
	opt := DefaultOptions()
	opt.Infomap.WarmStart = make([]uint32, g.N()-1)
	_, err := Run(g, opt)
	if err == nil || !strings.Contains(err.Error(), "WarmStart") {
		t.Fatalf("short WarmStart accepted: %v", err)
	}
}

// TestWarmStartFrontier: the driver's warm-start frontier holds for the
// cluster. A frontier that covers the whole graph is no restriction, so the
// run is byte-identical to an unrestricted warm start; a 0-hop frontier
// re-optimizes the touched vertices alone and freezes every other one.
func TestWarmStartFrontier(t *testing.T) {
	g, _ := plantedGraph(t)
	cold, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	touched := []uint32{3, 77, 150, 199}
	warm := func(seeds []uint32, hops int) *Result {
		opt := DefaultOptions()
		opt.Infomap.WarmStart = cold.Membership
		opt.Infomap.FrontierSeeds = seeds
		opt.Infomap.FrontierHops = hops
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free, whole := warm(nil, 0), warm(touched, g.N())
	if math.Float64bits(whole.Codelength) != math.Float64bits(free.Codelength) ||
		!reflect.DeepEqual(whole.Membership, free.Membership) ||
		!reflect.DeepEqual(whole.SweepLog, free.SweepLog) || whole.Comm != free.Comm ||
		whole.FrozenVertices != 0 || whole.FrontierSize != g.N() {
		t.Fatalf("whole-graph frontier diverged from an unrestricted warm start: L %.12f vs %.12f, comm %+v vs %+v",
			whole.Codelength, free.Codelength, whole.Comm, free.Comm)
	}
	zero := warm(touched, 0)
	if want := g.N() - len(touched); zero.FrozenVertices != want || zero.FrontierSize != len(touched) {
		t.Fatalf("0-hop frontier froze %d of %d vertices (frontier %d), want %d frozen",
			zero.FrozenVertices, g.N(), zero.FrontierSize, want)
	}
}
