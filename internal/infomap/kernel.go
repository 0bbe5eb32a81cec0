package infomap

import (
	"slices"
	"sort"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/mapeq"
)

// proposal is one vertex's best move found during a parallel evaluation
// sweep. The commit phase recomputes the move's flows against the current
// membership before applying, so only the target survives evaluation; wid
// records which worker evaluated the vertex so applied moves are attributed
// to the right WorkerStats even under work stealing.
type proposal struct {
	node   uint32
	target uint32
	wid    int32
}

// Scanner is the paper's FindBestCommunity for one vertex at a time, and the
// only candidate scan in the repository: the flat kernel's workers, the
// hierarchical submodule search and the distributed ranks all price moves
// through it. It owns the core-local accumulators — one table for outgoing
// flow and one for incoming flow, exactly the pair declared in lines 1–2 of
// the paper's Algorithm 1 — plus scratch buffers and event counters. A
// Scanner is not safe for concurrent use; parallel sweeps give each worker
// its own.
type Scanner struct {
	out, in      accum.Accumulator
	outBuf       []accum.KV
	inBuf        []accum.KV
	stats        WorkerStats
	mergedGather bool // ASA-style candidate iteration (Algorithm 2)
}

// NewScanner builds a Scanner over opt's accumulator backend. hint is the
// expected largest session — the graph's maximum degree — and sizes the
// software tables so hubs pay no growth churn.
func NewScanner(opt Options, hint int) (*Scanner, error) {
	out, err := opt.newAccumulator(hint)
	if err != nil {
		return nil, err
	}
	in, err := opt.newAccumulator(hint)
	if err != nil {
		return nil, err
	}
	return &Scanner{
		out: out,
		in:  in,
		// ASA gathers+merges instead of point probes (Algorithm 2); the
		// probe-free HashGraph backend takes the same lookup-free candidate
		// path — its whole point is never probing during accumulation.
		mergedGather: opt.Kind == ASA || opt.Kind == HashGraph,
	}, nil
}

// Stats returns the Scanner's cumulative kernel work with both
// accumulators' event counts folded in.
func (s *Scanner) Stats() WorkerStats {
	ws := s.stats
	ws.Accum = accum.Stats{}
	ws.Accum.Add(s.out.Stats())
	ws.Accum.Add(s.in.Stats())
	return ws
}

// evaluateBlock runs FindBestCommunity for the vertices order[lo:hi] against
// a frozen State snapshot, appending improving moves to dst in order[] order.
// Keeping proposals per block (not per worker) makes the commit sequence a
// pure function of the shuffled order: concatenating block buffers in block
// index order recovers exactly the serial visitation sequence, no matter
// which worker ran — or stole — which block.
//
//asalint:hotroot per-sweep block evaluation: the inner loop of the paper's kernel
func (s *Scanner) evaluateBlock(st *mapeq.State, f *mapeq.Flow, order []uint32, lo, hi int, wid int32, dst []proposal) []proposal {
	for i := lo; i < hi; i++ {
		if t, _, ok := s.FindBestCommunity(st, f, int(order[i])); ok {
			dst = append(dst, proposal{node: order[i], target: t, wid: wid})
		}
	}
	return dst
}

// CommitMove moves vertex v to module target on st when that still lowers
// the codelength (mapeq.State.CommitMove) and counts the committed move as
// the Scanner's MovesApplied work. Every engine commits through it, so the
// perf model prices move-apply work the same on each.
func (s *Scanner) CommitMove(st *mapeq.State, f *mapeq.Flow, v int, target uint32) bool {
	if !st.CommitMove(f, v, target) {
		return false
	}
	s.stats.Work.MovesApplied++
	return true
}

// FindBestCommunity is Algorithm 1 (Baseline) / Algorithm 2 (ASA) of the
// paper: accumulate per-module outgoing and incoming flow over vertex v's
// adjacency under st's membership, then pick the module whose ΔL is most
// negative. ok reports an improving move (target differs from v's module and
// delta < 0); st is only read.
//
//asalint:hotroot per-vertex candidate scan shared by flat, hierarchical and distributed sweeps
func (s *Scanner) FindBestCommunity(st *mapeq.State, f *mapeq.Flow, v int) (target uint32, delta float64, ok bool) {
	g := f.G
	s.stats.Work.VerticesProcessed++
	old := st.Module(v)

	s.out.Reset()
	s.in.Reset()

	// Accumulate outgoing flow per neighbor module (Alg. 1 lines 4–13).
	lo, _ := g.OutRange(v)
	nb := g.OutNeighbors(v)
	links := 0
	for i := range nb {
		t := int(nb[i])
		if t == v {
			continue
		}
		s.stats.Work.ArcsProcessed++
		s.out.Accumulate(st.Module(t), f.OutFlow[lo+i])
		links++
	}
	// Accumulate incoming flow (Alg. 1 line 14).
	ilo, _ := g.InRange(v)
	in := g.InNeighbors(v)
	for i := range in {
		u := int(in[i])
		if u == v {
			continue
		}
		s.stats.Work.ArcsProcessed++
		s.in.Accumulate(st.Module(u), f.InFlow[ilo+i])
		links++
	}
	if links == 0 {
		// Isolated vertex (or only self-loops): no neighbor module to join.
		return old, 0, false
	}

	view := f.View(v)
	if s.mergedGather {
		target, delta = s.candidatesMerged(st, view, old)
	} else {
		target, delta = s.candidatesLookup(st, view, old)
	}
	return target, delta, target != old && delta < 0
}

// better reports whether candidate module m with ΔL d improves on the best
// so far (bestM, bestD), the scan having started from (old, 0). It is the one
// tie-break rule of every candidate scan: exact ΔL ties go to the smaller
// module ID. That matters for determinism: the hash table's Gather order
// depends on its capacity history, which varies with which worker's table
// processed the vertex, so exact-ΔL ties would otherwise resolve differently
// across worker counts and steal schedules.
func better(bestM uint32, bestD float64, m uint32, d float64, old uint32) bool {
	if d < bestD {
		return true
	}
	return d == bestD && bestM != old && m < bestM
}

// candidatesLookup is the Baseline candidate scan (Alg. 1 lines 15–25):
// iterate the out-flow hash table and point-look-up the in-flow table.
func (s *Scanner) candidatesLookup(st *mapeq.State, view mapeq.NodeView, old uint32) (uint32, float64) {
	s.outBuf = s.out.Gather(s.outBuf[:0])
	outOld, _ := s.out.Lookup(old)
	inOld, _ := s.in.Lookup(old)

	dep := st.Prepare(view, outOld, inOld)
	best, bestD := old, 0.0
	for _, kv := range s.outBuf {
		if kv.Key == old {
			continue
		}
		inFlow, _ := s.in.Lookup(kv.Key)
		s.stats.Work.CandidatesEvaluated++
		if d := dep.Delta(kv.Key, kv.Value, inFlow); better(best, bestD, kv.Key, d, old) {
			best, bestD = kv.Key, d
		}
	}
	// Directed graphs can have candidate modules reachable only via
	// in-links; Algorithm 1's line 14 surfaces them the same way.
	s.inBuf = s.in.Gather(s.inBuf[:0])
	for _, kv := range s.inBuf {
		if kv.Key == old {
			continue
		}
		if _, seen := s.out.Lookup(kv.Key); seen {
			continue // already evaluated above
		}
		s.stats.Work.CandidatesEvaluated++
		if d := dep.Delta(kv.Key, 0, kv.Value); better(best, bestD, kv.Key, d, old) {
			best, bestD = kv.Key, d
		}
	}
	return best, bestD
}

// candidatesMerged is the ASA candidate scan (Alg. 2 lines 9–14): gather both
// CAMs (with sort_and_merge on overflow), sort the pair vectors, and walk
// them with a two-pointer merge.
func (s *Scanner) candidatesMerged(st *mapeq.State, view mapeq.NodeView, old uint32) (uint32, float64) {
	s.outBuf = s.out.Gather(s.outBuf[:0])
	s.inBuf = s.in.Gather(s.inBuf[:0])
	sortKV(s.outBuf)
	sortKV(s.inBuf)

	var outOld, inOld float64
	if i := findKV(s.outBuf, old); i >= 0 {
		outOld = s.outBuf[i].Value
	}
	if i := findKV(s.inBuf, old); i >= 0 {
		inOld = s.inBuf[i].Value
	}

	dep := st.Prepare(view, outOld, inOld)
	best, bestD := old, 0.0
	i, j := 0, 0
	for i < len(s.outBuf) || j < len(s.inBuf) {
		var m uint32
		var of, nf float64
		switch {
		case j >= len(s.inBuf) || (i < len(s.outBuf) && s.outBuf[i].Key < s.inBuf[j].Key):
			m, of = s.outBuf[i].Key, s.outBuf[i].Value
			i++
		case i >= len(s.outBuf) || s.inBuf[j].Key < s.outBuf[i].Key:
			m, nf = s.inBuf[j].Key, s.inBuf[j].Value
			j++
		default:
			m, of, nf = s.outBuf[i].Key, s.outBuf[i].Value, s.inBuf[j].Value
			i++
			j++
		}
		if m == old {
			continue
		}
		s.stats.Work.CandidatesEvaluated++
		if d := dep.Delta(m, of, nf); better(best, bestD, m, d, old) {
			best, bestD = m, d
		}
	}
	return best, bestD
}

// sortKVThreshold is the length above which sortKV switches from insertion
// sort to slices.SortFunc. Candidate lists are degree-bounded: most are tiny
// (insertion sort wins, no comparator indirection), but a hub of degree d
// would cost O(d²) — ruinous at d ~ 10⁴ — so larger lists take the O(d log d)
// path. slices.SortFunc (unlike sort.Slice) is allocation-free here.
const sortKVThreshold = 32

// sortKV sorts pair vectors by key: insertion sort below sortKVThreshold,
// slices.SortFunc above.
func sortKV(kvs []accum.KV) {
	if len(kvs) > sortKVThreshold {
		slices.SortFunc(kvs, func(a, b accum.KV) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(kvs); i++ {
		kv := kvs[i]
		j := i - 1
		for j >= 0 && kvs[j].Key > kv.Key {
			kvs[j+1] = kvs[j]
			j--
		}
		kvs[j+1] = kv
	}
}

// findKV binary-searches sorted kvs for key, returning its index or -1.
func findKV(kvs []accum.KV, key uint32) int {
	//asalint:hotalloc sort.Search does not retain f, so escape analysis keeps this closure off the heap
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	if i < len(kvs) && kvs[i].Key == key {
		return i
	}
	return -1
}
