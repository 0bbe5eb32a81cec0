package mapeq

import (
	"context"
	"math"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/rng"
)

// referenceDeltaMove is the uncached ΔL: every one of its fourteen Plogp
// terms is evaluated from the current rates, in the order the original
// single-call DeltaMove summed them. Prepare/Delta must reproduce it bit for
// bit.
func referenceDeltaMove(s *State, v NodeView, newMod uint32, outOld, inOld, outNew, inNew float64) float64 {
	old := s.membership[v.Node]
	if old == newMod {
		return 0
	}
	dExitOld := -(v.ArcOut - outOld) - v.TeleOut*(1-s.land[old]) +
		inOld + (s.tele[old]-v.TeleOut)*v.Land
	dEnterOld := -(v.ArcIn - inOld) - (s.teleTotal-s.tele[old])*v.Land +
		outOld + v.TeleOut*(s.land[old]-v.Land)
	dExitNew := (v.ArcOut - outNew) + v.TeleOut*(1-s.land[newMod]-v.Land) -
		inNew - s.tele[newMod]*v.Land
	dEnterNew := (v.ArcIn - inNew) + (s.teleTotal-s.tele[newMod]-v.TeleOut)*v.Land -
		outNew - v.TeleOut*s.land[newMod]
	exitOld, exitNew := clampNonNeg(s.exit[old]+dExitOld), clampNonNeg(s.exit[newMod]+dExitNew)
	enterOld, enterNew := clampNonNeg(s.enter[old]+dEnterOld), clampNonNeg(s.enter[newMod]+dEnterNew)
	sumEnterAfter := s.sumEnter + (enterOld - s.enter[old]) + (enterNew - s.enter[newMod])

	delta := Plogp(sumEnterAfter+s.exitOffset) - Plogp(s.sumEnter+s.exitOffset)
	delta -= Plogp(enterOld) - Plogp(s.enter[old]) + Plogp(enterNew) - Plogp(s.enter[newMod])
	delta -= Plogp(exitOld) - Plogp(s.exit[old]) + Plogp(exitNew) - Plogp(s.exit[newMod])
	delta += Plogp(exitOld+s.flow[old]-v.Flow) - Plogp(s.exit[old]+s.flow[old])
	delta += Plogp(exitNew+s.flow[newMod]+v.Flow) - Plogp(s.exit[newMod]+s.flow[newMod])
	return delta
}

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCaches fails unless every cached plogp term equals a fresh Plogp of
// the value it caches.
func checkCaches(t *testing.T, s *State, label string) {
	t.Helper()
	for m := range s.exit {
		if !sameBits(s.plogpEnter[m], Plogp(s.enter[m])) {
			t.Fatalf("%s: plogpEnter[%d] stale", label, m)
		}
		if !sameBits(s.plogpExit[m], Plogp(s.exit[m])) {
			t.Fatalf("%s: plogpExit[%d] stale", label, m)
		}
		if !sameBits(s.plogpBoth[m], Plogp(s.exit[m]+s.flow[m])) {
			t.Fatalf("%s: plogpBoth[%d] stale", label, m)
		}
	}
	if !sameBits(s.plogpIndex, Plogp(s.sumEnter+s.exitOffset)) {
		t.Fatalf("%s: plogpIndex stale", label)
	}
}

// deltaFlows returns the flow variants the exactness test runs over:
// undirected, directed with recorded and with unrecorded teleportation, and
// a directed flow carrying external in- and out-flow (the shape of a
// submodule), folded into copies of ArcIn and ArcOut.
func deltaFlows(t *testing.T) []namedFlow {
	t.Helper()
	ug, _, err := gen.SBM(gen.SBMParams{Sizes: []int{16, 16, 16, 16}, PIn: 0.3, POut: 0.04}, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	undirected, err := NewUndirectedFlow(ug)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := gen.RMAT(6, 6, rng.New(72))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := pagerank.ComputeContext(context.Background(), dg, pagerank.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := NewDirectedFlow(dg, pr.Rank, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	unrecorded, err := NewDirectedFlowUnrecorded(dg, pr.Rank, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	extIn := *recorded
	extIn.ExtIn = make([]float64, dg.N())
	extIn.ExtOut = make([]float64, dg.N())
	extIn.ArcIn = append([]float64(nil), recorded.ArcIn...)
	extIn.ArcOut = append([]float64(nil), recorded.ArcOut...)
	r := rng.New(73)
	for u := range extIn.ExtIn {
		if r.Intn(3) == 0 {
			extIn.ExtIn[u] = 0.01 * r.Float64()
			extIn.ArcIn[u] += extIn.ExtIn[u]
		}
		if r.Intn(3) == 0 {
			extIn.ExtOut[u] = 0.01 * r.Float64()
			extIn.ArcOut[u] += extIn.ExtOut[u]
		}
	}
	return []namedFlow{
		{"undirected", undirected},
		{"recorded", recorded},
		{"unrecorded", unrecorded},
		{"extin", &extIn},
	}
}

type namedFlow struct {
	name string
	f    *Flow
}

// TestPrepareDeltaBitExact pins the cached ΔL to the uncached reference, bit
// for bit, for every candidate module of sampled vertices, across a random
// sequence of Apply, Refresh and SetExitOffset calls. Candidates include
// emptied modules, and moves empty modules along the way. After every
// mutation each cached term must equal a fresh Plogp of its value.
func TestPrepareDeltaBitExact(t *testing.T) {
	for _, nf := range deltaFlows(t) {
		f := nf.f
		t.Run(nf.name, func(t *testing.T) {
			r := rng.New(74)
			n := f.G.N()
			k := n / 2
			membership := randomMembership(n, k, r)
			st, err := NewState(f, membership, k)
			if err != nil {
				t.Fatal(err)
			}
			checkCaches(t, st, "new")
			for step := 0; step < 300; step++ {
				for probe := 0; probe < 4; probe++ {
					v := r.Intn(n)
					view := f.View(v)
					old := st.Module(v)
					outOld, inOld, _, _ := moveFlows(f, st.Membership(), v, old, old)
					dep := st.Prepare(view, outOld, inOld)
					for m := uint32(0); m < uint32(k); m++ {
						_, _, outNew, inNew := moveFlows(f, st.Membership(), v, old, m)
						got := dep.Delta(m, outNew, inNew)
						want := referenceDeltaMove(st, view, m, outOld, inOld, outNew, inNew)
						if !sameBits(got, want) {
							t.Fatalf("step %d: vertex %d -> module %d: Delta %x, reference %x",
								step, v, m, math.Float64bits(got), math.Float64bits(want))
						}
						if d := st.DeltaMove(view, m, outOld, inOld, outNew, inNew); !sameBits(d, want) {
							t.Fatalf("step %d: DeltaMove %x, reference %x", step, math.Float64bits(d), math.Float64bits(want))
						}
					}
				}
				switch op := r.Intn(20); {
				case op == 0:
					st.Refresh()
					checkCaches(t, st, "refresh")
				case op == 1:
					st.SetExitOffset(0.2 * r.Float64())
					checkCaches(t, st, "offset")
				default:
					v := r.Intn(n)
					old := st.Module(v)
					newMod := uint32(r.Intn(k))
					if op%2 == 0 {
						// Move into a neighbour's module so modules also
						// empty, not only fill at random.
						if nb := f.G.OutNeighbors(v); len(nb) > 0 {
							newMod = st.Module(int(nb[r.Intn(len(nb))]))
						}
					}
					oo, io, on, in := moveFlows(f, st.Membership(), v, old, newMod)
					st.Apply(f.View(v), newMod, oo, io, on, in)
					checkCaches(t, st, "apply")
				}
			}
			if numModules(st) == k {
				t.Fatalf("no module emptied in %d steps; the empty-module path went untested", 300)
			}
		})
	}
}

// TestResetMatchesNewState pins that a State reused through Reset, from a
// larger and from a smaller previous shape, is field-for-field the State
// NewState builds.
func TestResetMatchesNewState(t *testing.T) {
	flows := deltaFlows(t)
	big, small := flows[0].f, flows[3].f
	r := rng.New(75)
	reused := new(State)
	for i, f := range []*Flow{big, small, big, small} {
		n := f.G.N()
		k := n / (3 + i)
		mem := randomMembership(n, k, r)
		if i%2 == 1 {
			reused.SetExitOffset(0.3) // Reset must drop it
		}
		if _, err := reused.Reset(f, append([]uint32(nil), mem...), k); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewState(f, append([]uint32(nil), mem...), k)
		if err != nil {
			t.Fatal(err)
		}
		floats := []struct {
			name string
			a, b []float64
		}{
			{"flow", reused.flow, fresh.flow}, {"tele", reused.tele, fresh.tele},
			{"land", reused.land, fresh.land}, {"exit", reused.exit, fresh.exit},
			{"enter", reused.enter, fresh.enter}, {"plogpEnter", reused.plogpEnter, fresh.plogpEnter},
			{"plogpExit", reused.plogpExit, fresh.plogpExit}, {"plogpBoth", reused.plogpBoth, fresh.plogpBoth},
		}
		for _, p := range floats {
			if len(p.a) != len(p.b) {
				t.Fatalf("reset %d: %s length %d, want %d", i, p.name, len(p.a), len(p.b))
			}
			for m := range p.a {
				if !sameBits(p.a[m], p.b[m]) {
					t.Fatalf("reset %d: %s[%d] differs", i, p.name, m)
				}
			}
		}
		for m := range fresh.size {
			if reused.size[m] != fresh.size[m] {
				t.Fatalf("reset %d: size[%d] differs", i, m)
			}
		}
		if !sameBits(reused.Codelength(), fresh.Codelength()) || !sameBits(reused.NodeTerm(), fresh.NodeTerm()) ||
			reused.exitOffset != 0 {
			t.Fatalf("reset %d: aggregates differ", i)
		}
	}
	if _, err := reused.Reset(small, []uint32{0}, 1); err == nil {
		t.Fatal("short membership accepted")
	}
}

// TestCommitMoveMatchesReference pins CommitMove to the commit re-check both
// engines used to spell out: sum v's flows under the current membership,
// price the move with DeltaMove and Apply it only when ΔL < 0. Random
// proposals, many of them stale or non-improving, must leave the two states
// bit-identical after every call.
func TestCommitMoveMatchesReference(t *testing.T) {
	for _, nf := range deltaFlows(t) {
		f := nf.f
		t.Run(nf.name, func(t *testing.T) {
			r := rng.New(76)
			n := f.G.N()
			k := n / 2
			membership := randomMembership(n, k, r)
			got, err := NewState(f, append([]uint32(nil), membership...), k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewState(f, membership, k)
			if err != nil {
				t.Fatal(err)
			}
			committed := 0
			for step := 0; step < 2000; step++ {
				v := r.Intn(n)
				target := uint32(r.Intn(k))
				if nb := f.G.OutNeighbors(v); step%2 == 0 && len(nb) > 0 {
					target = want.Module(int(nb[r.Intn(len(nb))]))
				}
				wantMoved := false
				if old := want.Module(v); old != target {
					oo, io, on, in := moveFlows(f, want.Membership(), v, old, target)
					view := f.View(v)
					if d := want.DeltaMove(view, target, oo, io, on, in); d < 0 {
						want.Apply(view, target, oo, io, on, in)
						wantMoved = true
					}
				}
				if moved := got.CommitMove(f, v, target); moved != wantMoved {
					t.Fatalf("step %d: CommitMove(%d -> %d) = %v, reference %v", step, v, target, moved, wantMoved)
				}
				if wantMoved {
					committed++
				}
				if got.Module(v) != want.Module(v) || !sameBits(got.Codelength(), want.Codelength()) {
					t.Fatalf("step %d: states diverge: codelength %x vs %x", step,
						math.Float64bits(got.Codelength()), math.Float64bits(want.Codelength()))
				}
			}
			if committed == 0 {
				t.Fatal("no proposal committed; the apply path went untested")
			}
		})
	}
}
