package infomap

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
)

// warmEpsilon is the pinned differential bound: a warm-start run on (G, Δ)
// must land within this relative codelength distance of a cold run on G+Δ.
// Warm start trades global re-optimization for a k-hop frontier, so it may
// settle in a nearby (occasionally even better) local optimum — but never a
// substantially worse one.
const warmEpsilon = 0.02

// warmFixture builds the differential tier's workload: an LFR parent graph,
// a ~1% delta batch (removes, adds including one new vertex, reweights), the
// delta-applied child graph, and the parent's cold partition extended to the
// child's vertex count (new vertices start as fresh singletons — exactly how
// the serving layer seeds warm detection on a version's child).
func warmFixture(t *testing.T) (parent, child *graph.Graph, d *graph.Delta, seed []uint32) {
	t.Helper()
	parent, _, err := gen.LFR(gen.DefaultLFR(600, 0.25), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic ~1% churn: the LFR graph has ~2-3k edges; touch ~30.
	r := rng.New(7)
	var uniq []graph.Edge
	for _, e := range parent.Edges() {
		if e.From <= e.To {
			uniq = append(uniq, e)
		}
	}
	d = &graph.Delta{}
	for i := 0; i < 10; i++ {
		e := uniq[r.Intn(len(uniq))]
		d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaRemove, From: e.From, To: e.To})
	}
	for i := 0; i < 10; i++ {
		u := uint32(r.Intn(parent.N()))
		v := uint32(r.Intn(parent.N()))
		if u == v {
			continue
		}
		d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaAdd, From: u, To: v, Weight: 1})
	}
	for i := 0; i < 5; i++ {
		e := uniq[r.Intn(len(uniq))]
		d.Ops = append(d.Ops, graph.DeltaEdge{Op: graph.DeltaSet, From: e.From, To: e.To, Weight: 2})
	}
	// One genuinely new vertex, attached to an existing one.
	d.Ops = append(d.Ops, graph.DeltaEdge{
		Op: graph.DeltaAdd, From: uint32(parent.N()), To: uint32(r.Intn(parent.N())), Weight: 1,
	})

	child, err = d.Apply(parent)
	if err != nil {
		t.Fatal(err)
	}
	if child.N() != parent.N()+1 {
		t.Fatalf("child N = %d, want %d", child.N(), parent.N()+1)
	}

	cold, err := Run(parent, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seed = make([]uint32, child.N())
	copy(seed, cold.Membership)
	next := uint32(cold.NumModules)
	for v := parent.N(); v < child.N(); v++ {
		seed[v] = next
		next++
	}
	return parent, child, d, seed
}

// TestWarmStartDifferentialEpsilon: the epsilon leg of the differential
// contract — warm-start on the child lands within warmEpsilon (relative) of
// a cold run's codelength, for both the default 2-hop frontier and an
// unrestricted warm start.
func TestWarmStartDifferentialEpsilon(t *testing.T) {
	_, child, d, seed := warmFixture(t)

	cold, err := Run(child, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		seeds []uint32
		hops  int
	}{
		{"unrestricted", nil, 0},
		{"hops2", d.Touched(), 2},
		{"hops0", d.Touched(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.WarmStart = seed
			opt.FrontierSeeds = tc.seeds
			opt.FrontierHops = tc.hops
			warm, err := Run(child, opt)
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(warm.Codelength-cold.Codelength) / cold.Codelength
			if rel > warmEpsilon {
				t.Fatalf("warm codelength %.6f vs cold %.6f: relative gap %.4f > %.4f",
					warm.Codelength, cold.Codelength, rel, warmEpsilon)
			}
		})
	}
}

// TestWarmStartFullFrontierByteIdentical: the byte-identity leg — when the
// frontier covers the whole graph, the restriction is vacuous and the run
// must be bit-identical to an unrestricted warm start, across worker counts
// and steal schedules.
func TestWarmStartFullFrontierByteIdentical(t *testing.T) {
	_, child, d, seed := warmFixture(t)

	ref := DefaultOptions()
	ref.WarmStart = seed
	refRes, err := Run(child, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Workers = workers
			opt.WarmStart = seed
			opt.FrontierSeeds = d.Touched()
			opt.FrontierHops = child.N() // covers every reachable vertex
			res, err := Run(child, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.FrozenVertices != 0 {
				t.Fatalf("full-coverage frontier froze %d vertices", res.FrozenVertices)
			}
			if math.Float64bits(res.Codelength) != math.Float64bits(refRes.Codelength) {
				t.Fatalf("codelength %.17g != unrestricted %.17g", res.Codelength, refRes.Codelength)
			}
			for v := range res.Membership {
				if res.Membership[v] != refRes.Membership[v] {
					t.Fatalf("membership diverges at vertex %d: %d vs %d",
						v, res.Membership[v], refRes.Membership[v])
				}
			}
		})
	}
}

// TestWarmStartFrontierRestricted: a small-hop warm start re-optimizes only
// the frontier — asserted both through the Result counters and through the
// obs span attributes (frontier_size on the run span; no leaf sweep touches
// more vertices than the frontier holds) — and is itself deterministic
// across worker counts and schedulers.
func TestWarmStartFrontierRestricted(t *testing.T) {
	_, child, d, seed := warmFixture(t)

	newOpt := func() Options {
		opt := DefaultOptions()
		opt.WarmStart = seed
		opt.FrontierSeeds = d.Touched()
		opt.FrontierHops = 0
		return opt
	}

	tracer := obs.New(obs.Config{Seed: 1})
	root := tracer.Begin("test")
	opt := newOpt()
	opt.Trace = root
	res, err := Run(child, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	if res.FrozenVertices == 0 || res.FrontierSize == 0 {
		t.Fatalf("0-hop frontier should be a strict subset: size=%d frozen=%d",
			res.FrontierSize, res.FrozenVertices)
	}
	if res.FrontierSize+res.FrozenVertices != child.N() {
		t.Fatalf("frontier %d + frozen %d != N %d", res.FrontierSize, res.FrozenVertices, child.N())
	}
	if res.FrontierSize > child.N()/4 {
		t.Fatalf("0-hop frontier of a 1%%-edge delta spans %d of %d vertices — not a local re-optimization",
			res.FrontierSize, child.N())
	}
	if res.TotalWork().FrontierFrozen == 0 {
		t.Fatal("FrontierFrozen work counter not accounted")
	}

	// Span-attribute assertions: the run span carries the frontier telemetry
	// and every leaf-level sweep stayed within the frontier.
	attr := func(attrs []obs.Attr, key string) (string, bool) {
		for _, a := range attrs {
			if a.Key == key {
				return a.Value, true
			}
		}
		return "", false
	}
	spans := tracer.Snapshot(0)
	var frontierSize uint64
	levelIDs := make(map[uint64]bool) // leaf-level span IDs
	foundRun := false
	for _, sd := range spans {
		if sd.Name != "run" {
			continue
		}
		foundRun = true
		if v, ok := attr(sd.Attrs, "warm_start"); !ok || v != "true" {
			t.Fatalf("run span warm_start = %q, want true", v)
		}
		v, ok := attr(sd.Attrs, "frontier_size")
		if !ok {
			t.Fatal("run span missing frontier_size")
		}
		frontierSize, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if frontierSize != uint64(res.FrontierSize) {
			t.Fatalf("span frontier_size %d != result %d", frontierSize, res.FrontierSize)
		}
		if v, ok := attr(sd.Attrs, "frontier_hops"); !ok || v != "0" {
			t.Fatalf("run span frontier_hops = %q, want 0", v)
		}
		if _, ok := attr(sd.Attrs, "warm_modules_seeded"); !ok {
			t.Fatal("run span missing warm_modules_seeded")
		}
	}
	if !foundRun {
		t.Fatal("no run span in trace")
	}
	for _, sd := range spans {
		if sd.Name == "level" {
			if v, ok := attr(sd.Attrs, "level"); ok && v == "0" {
				levelIDs[sd.ID] = true
			}
		}
	}
	checkedSweeps := 0
	for _, sd := range spans {
		if sd.Name != "sweep" || !levelIDs[sd.Parent] {
			continue
		}
		v, ok := attr(sd.Attrs, "active")
		if !ok {
			t.Fatal("sweep span missing active")
		}
		active, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if active > frontierSize {
			t.Fatalf("leaf sweep re-optimized %d vertices > frontier %d", active, frontierSize)
		}
		checkedSweeps++
	}
	if checkedSweeps == 0 {
		t.Fatal("no leaf-level sweep spans found")
	}

	// Restricted warm runs obey the same schedule-invariance contract as
	// everything else.
	for _, workers := range []int{1, 4} {
		opt := newOpt()
		opt.Workers = workers
		got, err := Run(child, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Codelength) != math.Float64bits(res.Codelength) {
			t.Fatalf("workers=%d: codelength %.17g != %.17g",
				workers, got.Codelength, res.Codelength)
		}
		for v := range got.Membership {
			if got.Membership[v] != res.Membership[v] {
				t.Fatalf("workers=%d: membership diverges at %d", workers, v)
			}
		}
	}
}

// TestWarmStartValidation pins the error surface of the new options.
func TestWarmStartValidation(t *testing.T) {
	g, _, err := gen.LFR(gen.DefaultLFR(100, 0.3), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}

	opt := DefaultOptions()
	opt.WarmStart = make([]uint32, g.N()-1)
	if _, err := Run(g, opt); err == nil {
		t.Fatal("short WarmStart accepted")
	}

	opt = DefaultOptions()
	opt.FrontierHops = -1
	if _, err := Run(g, opt); err == nil {
		t.Fatal("negative FrontierHops accepted")
	}

	opt = DefaultOptions()
	opt.FrontierSeeds = []uint32{1}
	if _, err := Run(g, opt); err == nil {
		t.Fatal("FrontierSeeds without WarmStart accepted")
	}
}

// TestWarmStartFingerprint: the warm-start inputs are result-relevant and
// must separate cache keys.
func TestWarmStartFingerprint(t *testing.T) {
	base := DefaultOptions()
	warm := base
	warm.WarmStart = []uint32{0, 0, 1}
	if base.Fingerprint() == warm.Fingerprint() {
		t.Fatal("WarmStart not fingerprinted")
	}
	warm2 := warm
	warm2.WarmStart = []uint32{0, 1, 1}
	if warm.Fingerprint() == warm2.Fingerprint() {
		t.Fatal("WarmStart contents not fingerprinted")
	}
	empty := base
	empty.WarmStart = []uint32{}
	if base.Fingerprint() == empty.Fingerprint() {
		t.Fatal("nil and empty WarmStart should differ")
	}
	seeds := warm
	seeds.FrontierSeeds = []uint32{2}
	if warm.Fingerprint() == seeds.Fingerprint() {
		t.Fatal("FrontierSeeds not fingerprinted")
	}
	hops := seeds
	hops.FrontierHops = 3
	if seeds.Fingerprint() == hops.Fingerprint() {
		t.Fatal("FrontierHops not fingerprinted")
	}
}
