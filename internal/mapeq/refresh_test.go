package mapeq

import (
	"math"
	"testing"

	"github.com/asamap/asamap/internal/rng"
)

// stateBits is every float a State derives from its membership, as bits.
func stateBits(s *State) []uint64 {
	var out []uint64
	for _, xs := range [][]float64{s.exit, s.enter, s.plogpEnter, s.plogpExit, s.plogpBoth} {
		for _, x := range xs {
			out = append(out, math.Float64bits(x))
		}
	}
	for _, x := range []float64{s.sumEnter, s.sumPlogpEnter, s.sumPlogpExit, s.sumPlogpBoth, s.plogpIndex, s.Codelength()} {
		out = append(out, math.Float64bits(x))
	}
	return out
}

// checkRefreshNoOp fails unless a Refresh of s changes no bit of its
// codelength, module rates or cached terms.
func checkRefreshNoOp(t *testing.T, s *State, label string) {
	t.Helper()
	before := stateBits(s)
	cl := s.Codelength()
	exits, enters := make([]float64, len(s.exit)), make([]float64, len(s.exit))
	for m := range s.exit {
		exits[m], enters[m] = s.ModuleExit(uint32(m)), s.ModuleEnter(uint32(m))
	}
	s.Refresh()
	if !sameBits(s.Codelength(), cl) {
		t.Fatalf("%s: Refresh moved the codelength %v -> %v", label, cl, s.Codelength())
	}
	for m := range s.exit {
		if !sameBits(s.ModuleExit(uint32(m)), exits[m]) || !sameBits(s.ModuleEnter(uint32(m)), enters[m]) {
			t.Fatalf("%s: Refresh moved module %d's rates", label, m)
		}
	}
	after := stateBits(s)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("%s: Refresh moved cached term %d", label, i)
		}
	}
}

// TestRefreshUnchangedStateIsNoOp: a Refresh of a state no move has touched
// since its last Reset or Refresh rebuilds exactly the bits it holds — after
// a Reset, after a second Refresh, and after CommitMoves plus one Refresh.
// The infomap sweep loop skips the Refresh of a sweep that moved nothing on
// this ground.
func TestRefreshUnchangedStateIsNoOp(t *testing.T) {
	for _, nf := range deltaFlows(t) {
		f := nf.f
		t.Run(nf.name, func(t *testing.T) {
			r := rng.New(81)
			n := f.G.N()
			k := n / 3
			st, err := NewState(f, randomMembership(n, k, r), k)
			if err != nil {
				t.Fatal(err)
			}
			checkRefreshNoOp(t, st, "after Reset")
			checkRefreshNoOp(t, st, "after Refresh")
			committed := 0
			for step := 0; step < 500; step++ {
				v := r.Intn(n)
				if nb := f.G.OutNeighbors(v); len(nb) > 0 && st.CommitMove(f, v, st.Module(int(nb[r.Intn(len(nb))]))) {
					committed++
				}
			}
			if committed == 0 {
				t.Fatal("no move committed; the third case tests nothing")
			}
			st.Refresh()
			checkRefreshNoOp(t, st, "after CommitMoves and Refresh")
		})
	}
}

// TestFlowNodeTerm: Flow.NodeTerm is the node term Reset gives a State,
// bit for bit, and OneLevelCodelength is its negation, bit for bit the
// running difference it has always been.
func TestFlowNodeTerm(t *testing.T) {
	for _, nf := range deltaFlows(t) {
		f := nf.f
		n := f.G.N()
		st, err := NewState(f, randomMembership(n, n/4, rng.New(82)), n/4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(f.NodeTerm(), st.NodeTerm()) {
			t.Fatalf("%s: Flow.NodeTerm %v, Reset's %v", nf.name, f.NodeTerm(), st.NodeTerm())
		}
		h := 0.0
		for _, p := range f.NodeFlow {
			h -= Plogp(p)
		}
		if !sameBits(OneLevelCodelength(f), h) {
			t.Fatalf("%s: OneLevelCodelength %v, want %v", nf.name, OneLevelCodelength(f), h)
		}
	}
	// A lone vertex has zero entropy: +0, not the -0 a bare negation of
	// the node term would give.
	one := &Flow{NodeFlow: []float64{1}}
	if l := OneLevelCodelength(one); !sameBits(l, 0) {
		t.Fatalf("one-vertex OneLevelCodelength bits %x, want +0", math.Float64bits(l))
	}
}
