package mapeq

import (
	"fmt"
	"math"
)

// NodeView bundles the per-vertex flow quantities the FindBestCommunity
// kernel needs when evaluating moves of one vertex.
type NodeView struct {
	Node    int
	Flow    float64 // visit rate p_α
	TeleOut float64 // teleportation mass emitted by α
	Land    float64 // teleportation landing share of α
	ArcOut  float64 // total non-self out-arc flow of α
	ArcIn   float64 // total non-self in-arc flow of α
	ExtIn   float64 // flow entering α from outside the graph (usually 0)
}

// View returns the NodeView of vertex u.
func (f *Flow) View(u int) NodeView {
	v := NodeView{
		Node:    u,
		Flow:    f.NodeFlow[u],
		TeleOut: f.TeleOut[u],
		Land:    f.Land[u],
		ArcOut:  f.ArcOut[u],
		ArcIn:   f.ArcIn[u],
	}
	if f.ExtIn != nil {
		v.ExtIn = f.ExtIn[u]
	}
	return v
}

// OneLevelCodelength returns the codelength of the trivial one-module
// partition: the Shannon entropy of the visit rates. It upper-bounds the
// optimal two-level codelength and is the paper's reference point for
// "compression achieved".
func OneLevelCodelength(f *Flow) float64 {
	// 0 − t rather than −t: a zero-entropy flow (one vertex) prices +0.
	return 0 - f.NodeTerm()
}

// NodeTerm returns the partition-independent Σ plogp(p_α) over the flow's
// vertices, summed in vertex order: exactly the node term Reset gives a
// State on f.
func (f *Flow) NodeTerm() float64 {
	t := 0.0
	for _, p := range f.NodeFlow {
		t += Plogp(p)
	}
	return t
}

// State is the incremental map-equation bookkeeping for one partition of one
// flow level. It supports O(1) evaluation (Prepare/Delta) and application
// (Apply) of single-vertex moves, mirroring the module statistics HyPC-Map
// maintains.
//
// Alongside each module's rates, State caches the module's three plogp
// terms, and it caches the index term plogp(sumEnter + exitOffset). Every
// mutation refreshes the terms it touches, so each cached value is exactly
// Plogp of the current value. A candidate evaluation then costs four Plogp
// calls instead of fourteen.
//
// State is not safe for concurrent mutation; the parallel kernel in package
// infomap serializes Apply calls and tolerates stale reads during the
// parallel evaluation phase, exactly as the relaxed concurrency of the
// original algorithm does.
type State struct {
	f          *Flow
	membership []uint32

	flow  []float64 // per module: Σ member visit rates
	tele  []float64 // per module: Σ member teleport output
	land  []float64 // per module: Σ member landing shares
	size  []int     // per module: member count
	exit  []float64 // per module: exit rate
	enter []float64 // per module: enter rate

	plogpEnter []float64 // per module: Plogp(enter)
	plogpExit  []float64 // per module: Plogp(exit)
	plogpBoth  []float64 // per module: Plogp(exit + flow)

	teleTotal float64 // Σ teleport output over all vertices (constant)

	sumEnter      float64
	sumPlogpEnter float64 // Σ plogp(enter_i)
	sumPlogpExit  float64 // Σ plogp(exit_i)
	sumPlogpBoth  float64 // Σ plogp(exit_i + flow_i)
	plogpIndex    float64 // Plogp(sumEnter + exitOffset)
	nodeTerm      float64 // Σ plogp(p_α), partition independent
	exitOffset    float64 // constant added inside plogp(sumEnter + offset)
}

// NewState builds the bookkeeping for the given membership (dense module IDs
// in [0, numModules)).
func NewState(f *Flow, membership []uint32, numModules int) (*State, error) {
	return new(State).Reset(f, membership, numModules)
}

// Reset rebuilds s for a new flow and membership, exactly as NewState
// would, and returns s. The per-module arrays are resliced when they are
// large enough, so one State can serve every level of a run without
// reallocating. The exit offset returns to zero and the node term to the
// flow's own.
func (s *State) Reset(f *Flow, membership []uint32, numModules int) (*State, error) {
	n := f.G.N()
	if len(membership) != n {
		return nil, fmt.Errorf("mapeq: membership length %d, want %d", len(membership), n)
	}
	s.f = f
	s.membership = membership
	s.flow = resize(s.flow, numModules)
	s.tele = resize(s.tele, numModules)
	s.land = resize(s.land, numModules)
	s.exit = resize(s.exit, numModules)
	s.enter = resize(s.enter, numModules)
	s.plogpEnter = resize(s.plogpEnter, numModules)
	s.plogpExit = resize(s.plogpExit, numModules)
	s.plogpBoth = resize(s.plogpBoth, numModules)
	s.size = resize(s.size, numModules)
	s.teleTotal, s.exitOffset = 0, 0
	for _, t := range f.TeleOut {
		s.teleTotal += t
	}
	for u := 0; u < n; u++ {
		m := membership[u]
		if int(m) >= numModules {
			return nil, fmt.Errorf("mapeq: vertex %d module %d >= %d", u, m, numModules)
		}
		s.flow[m] += f.NodeFlow[u]
		s.tele[m] += f.TeleOut[u]
		s.land[m] += f.Land[u]
		s.size[m]++
	}
	s.nodeTerm = f.NodeTerm()
	s.recomputeExits()
	return s, nil
}

// resize returns a zeroed slice of length n, reusing buf's storage when its
// capacity allows.
func resize[T float64 | int](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// recomputeExits rebuilds q_i and the aggregate codelength terms from
// scratch. Used at construction and to wash out incremental floating-point
// drift after many moves.
func (s *State) recomputeExits() {
	for i := range s.exit {
		s.exit[i] = 0
		s.enter[i] = 0
	}
	f, g := s.f, s.f.G
	idx := 0
	for u := 0; u < g.N(); u++ {
		mu := s.membership[u]
		nb := g.OutNeighbors(u)
		for i := range nb {
			fl := f.OutFlow[idx]
			idx++
			if fl > 0 {
				if mv := s.membership[nb[i]]; mv != mu {
					s.exit[mu] += fl
					s.enter[mv] += fl
				}
			}
		}
	}
	if f.ExtIn != nil {
		for u := 0; u < g.N(); u++ {
			s.enter[s.membership[u]] += f.ExtIn[u]
		}
	}
	for m := range s.exit {
		if s.size[m] > 0 {
			s.exit[m] += s.tele[m] * (1 - s.land[m])
			s.enter[m] += (s.teleTotal - s.tele[m]) * s.land[m]
		}
	}
	s.sumEnter, s.sumPlogpEnter, s.sumPlogpExit, s.sumPlogpBoth = 0, 0, 0, 0
	for m := range s.exit {
		s.plogpEnter[m] = Plogp(s.enter[m])
		s.plogpExit[m] = Plogp(s.exit[m])
		s.plogpBoth[m] = Plogp(s.exit[m] + s.flow[m])
		s.sumEnter += s.enter[m]
		s.sumPlogpEnter += s.plogpEnter[m]
		s.sumPlogpExit += s.plogpExit[m]
		s.sumPlogpBoth += s.plogpBoth[m]
	}
	s.plogpIndex = Plogp(s.sumEnter + s.exitOffset)
}

// Refresh recomputes all aggregates from the current membership, washing out
// incremental floating-point drift. On a state no move has touched since its
// last Reset or Refresh it changes no bit.
func (s *State) Refresh() { s.recomputeExits() }

// SetExitOffset adds a constant to the index-codebook rate: the codelength's
// plogp(Σq) term becomes plogp(Σq + offset). The hierarchical driver uses
// this when optimizing inside a module, whose index codebook also encodes
// the module's own (fixed) exit rate.
func (s *State) SetExitOffset(offset float64) {
	s.exitOffset = offset
	s.plogpIndex = Plogp(s.sumEnter + s.exitOffset)
}

// Codelength returns the current two-level map equation value L(M) in bits.
// The general (directed, possibly non-stationary) form prices the index
// codebook by module *enter* rates and each module codebook by its *exit*
// rate plus member visits; for undirected and stationary recorded flows the
// two rates coincide and this reduces to the familiar symmetric formula.
func (s *State) Codelength() float64 {
	return s.plogpIndex - s.sumPlogpEnter - s.sumPlogpExit +
		s.sumPlogpBoth - s.nodeTerm
}

// NodeTerm returns the partition-independent Σ plogp(p_α) term.
func (s *State) NodeTerm() float64 { return s.nodeTerm }

// OverrideNodeTerm replaces the node term. The multi-level driver uses this
// at super-node levels: index and exit terms are computed over super nodes,
// but the within-module code must keep pricing the original leaf vertices,
// so the leaf-level Σ plogp(p_α) is carried through the hierarchy.
func (s *State) OverrideNodeTerm(t float64) { s.nodeTerm = t }

// Module returns the module of vertex u.
func (s *State) Module(u int) uint32 { return s.membership[u] }

// Membership returns the underlying membership slice. Callers must treat it
// as read-only; moves go through Apply.
func (s *State) Membership() []uint32 { return s.membership }

// NumModules returns the number of non-empty modules.
func (s *State) NumModules() int {
	n := 0
	for _, c := range s.size {
		if c > 0 {
			n++
		}
	}
	return n
}

// ModuleFlow returns the flow mass of module m.
func (s *State) ModuleFlow(m uint32) float64 { return s.flow[m] }

// ModuleExit returns the exit rate of module m.
func (s *State) ModuleExit(m uint32) float64 { return s.exit[m] }

// ModuleEnter returns the enter rate of module m (equal to ModuleExit for
// undirected and stationary recorded flows).
func (s *State) ModuleEnter(m uint32) float64 { return s.enter[m] }

// ModuleSize returns the member count of module m.
func (s *State) ModuleSize(m uint32) int { return s.size[m] }

// leaveDeltas returns the changes to the exit and enter rates of module old
// if vertex v left it, given v's accumulated arc flow to (outOld) and from
// (inOld) the other members of old — exactly the values the paper's hash
// accumulation step produces.
func (s *State) leaveDeltas(v *NodeView, old uint32, outOld, inOld float64) (dExitOld, dEnterOld float64) {
	// Removing v from old: v's boundary out-flow and teleport exits
	// disappear, while arcs and teleportation from remaining members to v
	// become exits; symmetrically for enters.
	dExitOld = -(v.ArcOut - outOld) - v.TeleOut*(1-s.land[old]) +
		inOld + (s.tele[old]-v.TeleOut)*v.Land
	dEnterOld = -(v.ArcIn - inOld) - v.ExtIn - (s.teleTotal-s.tele[old])*v.Land +
		outOld + v.TeleOut*(s.land[old]-v.Land)
	return
}

// joinDeltas returns the changes to the exit and enter rates of newMod if
// vertex v joined it, given v's arc flow to (outNew) and from (inNew) the
// members of newMod.
func (s *State) joinDeltas(v *NodeView, newMod uint32, outNew, inNew float64) (dExitNew, dEnterNew float64) {
	dExitNew = (v.ArcOut - outNew) + v.TeleOut*(1-s.land[newMod]-v.Land) -
		inNew - s.tele[newMod]*v.Land
	dEnterNew = (v.ArcIn - inNew) + v.ExtIn + (s.teleTotal-s.tele[newMod]-v.TeleOut)*v.Land -
		outNew - v.TeleOut*s.land[newMod]
	return
}

// Departure is the half of a move's ΔL that depends only on the vertex and
// the module it leaves. Prepare computes it once per vertex; Delta then
// prices each candidate module with four Plogp calls.
//
// Each field holds a parenthesised prefix of the full ΔL sum in the order
// Go evaluates it (left to right; amd64 does not contract into FMA), so
// Delta's result is bit-identical to evaluating the whole sum per
// candidate. A Departure is valid until the next mutation of its State.
type Departure struct {
	s   *State
	v   NodeView
	old uint32

	sumEnterLeft float64 // sumEnter + (enter'_old − enter_old)
	enterLeft    float64 // Plogp(enter'_old) − Plogp(enter_old)
	exitLeft     float64 // Plogp(exit'_old) − Plogp(exit_old)
	bothLeft     float64 // Plogp(exit'_old + flow_old − p_v) − Plogp(exit_old + flow_old)
}

// Prepare returns vertex v's Departure from its current module; outOld and
// inOld are v's arc flows to and from the module's other members.
func (s *State) Prepare(v NodeView, outOld, inOld float64) Departure {
	old := s.membership[v.Node]
	dxo, deo := s.leaveDeltas(&v, old, outOld, inOld)
	exitOld, enterOld := clampNonNeg(s.exit[old]+dxo), clampNonNeg(s.enter[old]+deo)
	return Departure{
		s:            s,
		v:            v,
		old:          old,
		sumEnterLeft: s.sumEnter + (enterOld - s.enter[old]),
		enterLeft:    Plogp(enterOld) - s.plogpEnter[old],
		exitLeft:     Plogp(exitOld) - s.plogpExit[old],
		bothLeft:     Plogp(exitOld+s.flow[old]-v.Flow) - s.plogpBoth[old],
	}
}

// Delta returns the change in codelength (bits) if the vertex moved to
// newMod, given its arc flows to (outNew) and from (inNew) newMod's
// members. Negative is an improvement; moving to its own module is 0.
func (d *Departure) Delta(newMod uint32, outNew, inNew float64) float64 {
	if newMod == d.old {
		return 0
	}
	s, v := d.s, &d.v
	dxn, den := s.joinDeltas(v, newMod, outNew, inNew)
	exitNew, enterNew := clampNonNeg(s.exit[newMod]+dxn), clampNonNeg(s.enter[newMod]+den)
	sumEnterAfter := d.sumEnterLeft + (enterNew - s.enter[newMod])

	delta := Plogp(sumEnterAfter+s.exitOffset) - s.plogpIndex
	delta -= d.enterLeft + Plogp(enterNew) - s.plogpEnter[newMod]
	delta -= d.exitLeft + Plogp(exitNew) - s.plogpExit[newMod]
	delta += d.bothLeft
	delta += Plogp(exitNew+s.flow[newMod]+v.Flow) - s.plogpBoth[newMod]
	return delta
}

// DeltaMove returns the change in codelength (bits) if vertex v moved from
// its current module to newMod: Prepare followed by one Delta. Candidate
// scans call Prepare once per vertex instead; DeltaMove serves the one-off
// re-check before a commit.
func (s *State) DeltaMove(v NodeView, newMod uint32, outOld, inOld, outNew, inNew float64) float64 {
	d := s.Prepare(v, outOld, inOld)
	return d.Delta(newMod, outNew, inNew)
}

func clampNonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// Apply moves vertex v to newMod and updates all bookkeeping incrementally,
// cached plogp terms included. The flow arguments must be the same values
// the move was priced with (Prepare and Delta, or DeltaMove).
func (s *State) Apply(v NodeView, newMod uint32, outOld, inOld, outNew, inNew float64) {
	old := s.membership[v.Node]
	if old == newMod {
		return
	}
	dxo, deo := s.leaveDeltas(&v, old, outOld, inOld)
	dxn, den := s.joinDeltas(&v, newMod, outNew, inNew)
	exitOld, exitNew := clampNonNeg(s.exit[old]+dxo), clampNonNeg(s.exit[newMod]+dxn)
	enterOld, enterNew := clampNonNeg(s.enter[old]+deo), clampNonNeg(s.enter[newMod]+den)
	plEnterOld, plEnterNew := Plogp(enterOld), Plogp(enterNew)
	plExitOld, plExitNew := Plogp(exitOld), Plogp(exitNew)

	s.sumEnter += (enterOld - s.enter[old]) + (enterNew - s.enter[newMod])
	s.sumPlogpEnter += plEnterOld - s.plogpEnter[old] +
		plEnterNew - s.plogpEnter[newMod]
	s.sumPlogpExit += plExitOld - s.plogpExit[old] +
		plExitNew - s.plogpExit[newMod]
	s.sumPlogpBoth += Plogp(exitOld+s.flow[old]-v.Flow) - s.plogpBoth[old] +
		Plogp(exitNew+s.flow[newMod]+v.Flow) - s.plogpBoth[newMod]

	s.exit[old] = exitOld
	s.exit[newMod] = exitNew
	s.enter[old] = enterOld
	s.enter[newMod] = enterNew
	s.flow[old] -= v.Flow
	s.flow[newMod] += v.Flow
	s.tele[old] -= v.TeleOut
	s.tele[newMod] += v.TeleOut
	s.land[old] -= v.Land
	s.land[newMod] += v.Land
	s.size[old]--
	s.size[newMod]++
	s.membership[v.Node] = newMod

	// Guard against negative drift in emptied modules.
	if s.size[old] == 0 {
		s.flow[old] = clampTiny(s.flow[old])
		s.tele[old] = clampTiny(s.tele[old])
		s.land[old] = clampTiny(s.land[old])
	}

	// Refresh the cached terms from the stored values. plogpBoth cannot
	// reuse the sum above: exit + (flow − p_v) rounds differently from
	// (exit + flow) − p_v, and the cache must equal Plogp(exit + flow).
	s.plogpEnter[old], s.plogpEnter[newMod] = plEnterOld, plEnterNew
	s.plogpExit[old], s.plogpExit[newMod] = plExitOld, plExitNew
	s.plogpBoth[old] = Plogp(s.exit[old] + s.flow[old])
	s.plogpBoth[newMod] = Plogp(s.exit[newMod] + s.flow[newMod])
	s.plogpIndex = Plogp(s.sumEnter + s.exitOffset)
}

// CommitMove re-prices moving vertex v to target against the current
// membership and applies the move only when it strictly lowers the
// codelength, reporting whether it did. Proposals priced against an older
// membership (a parallel sweep's frozen snapshot, a rank's stale ghosts)
// are therefore harmless: every committed move is an exact improvement.
func (s *State) CommitMove(f *Flow, v int, target uint32) bool {
	old := s.membership[v]
	if old == target {
		return false
	}
	oo, io, on, in := s.moveFlows(f, v, old, target)
	view := f.View(v)
	if d := s.DeltaMove(view, target, oo, io, on, in); d < 0 {
		s.Apply(view, target, oo, io, on, in)
		return true
	}
	return false
}

// moveFlows sums vertex v's arc flow to and from the members of its current
// module old and of target under the current membership — a plain adjacency
// walk, self-loops excluded.
func (s *State) moveFlows(f *Flow, v int, old, target uint32) (outOld, inOld, outNew, inNew float64) {
	g := f.G
	lo, _ := g.OutRange(v)
	for i, t := range g.OutNeighbors(v) {
		if int(t) == v {
			continue
		}
		switch s.membership[t] {
		case old:
			outOld += f.OutFlow[lo+i]
		case target:
			outNew += f.OutFlow[lo+i]
		}
	}
	ilo, _ := g.InRange(v)
	for i, u := range g.InNeighbors(v) {
		if int(u) == v {
			continue
		}
		switch s.membership[u] {
		case old:
			inOld += f.InFlow[ilo+i]
		case target:
			inNew += f.InFlow[ilo+i]
		}
	}
	return
}

func clampTiny(x float64) float64 {
	if math.Abs(x) < 1e-12 {
		return 0
	}
	return x
}

// CompactMembership renumbers the membership to dense module IDs
// [0, k) preserving first-appearance order and returns the module count.
// It is used before contraction to super nodes.
func CompactMembership(membership []uint32) int {
	remap := make(map[uint32]uint32)
	for i, m := range membership {
		id, ok := remap[m]
		if !ok {
			id = uint32(len(remap))
			remap[m] = id
		}
		membership[i] = id
	}
	return len(remap)
}
