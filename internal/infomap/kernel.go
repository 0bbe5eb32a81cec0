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
	delta  float64
}

// worker owns the core-local accumulators — one table for outgoing flow and
// one for incoming flow, exactly the pair declared in lines 1–2 of the
// paper's Algorithm 1 — plus scratch buffers and event counters.
type worker struct {
	id           int
	out, in      accum.Accumulator
	outBuf       []accum.KV
	inBuf        []accum.KV
	stats        WorkerStats
	mergedGather bool // ASA-style candidate iteration (Algorithm 2)
}

func newWorker(id int, o Options, hint int) (*worker, error) {
	out, err := o.newAccumulator(hint)
	if err != nil {
		return nil, err
	}
	in, err := o.newAccumulator(hint)
	if err != nil {
		return nil, err
	}
	return &worker{
		id:  id,
		out: out,
		in:  in,
		// ASA gathers+merges instead of point probes (Algorithm 2); the
		// probe-free HashGraph backend takes the same lookup-free candidate
		// path — its whole point is never probing during accumulation.
		mergedGather: o.Kind == ASA || o.Kind == HashGraph,
	}, nil
}

// snapshotStats folds the accumulators' cumulative stats into the worker's
// WorkerStats. Called once at the end of a run.
func (w *worker) snapshotStats() {
	w.stats.Accum = accum.Stats{}
	w.stats.Accum.Add(w.out.Stats())
	w.stats.Accum.Add(w.in.Stats())
}

// evaluateBlock runs FindBestCommunity for the vertices order[lo:hi] against
// a frozen State snapshot, appending improving moves to dst in order[] order.
// Keeping proposals per block (not per worker) makes the commit sequence a
// pure function of the shuffled order: concatenating block buffers in block
// index order recovers exactly the serial visitation sequence, no matter
// which worker ran — or stole — which block.
//
//asalint:hotroot per-sweep block evaluation: the inner loop of the paper's kernel
func (w *worker) evaluateBlock(st *mapeq.State, f *mapeq.Flow, order []uint32, lo, hi int, dst []proposal) []proposal {
	for i := lo; i < hi; i++ {
		if p, ok := w.findBestCommunity(st, f, int(order[i])); ok {
			dst = append(dst, p)
		}
	}
	return dst
}

// findBestCommunity is Algorithm 1 (Baseline) / Algorithm 2 (ASA) of the
// paper: accumulate per-module outgoing and incoming flow over the vertex's
// adjacency, then pick the module whose ΔL is most negative.
func (w *worker) findBestCommunity(st *mapeq.State, f *mapeq.Flow, v int) (proposal, bool) {
	g := f.G
	w.stats.Work.VerticesProcessed++
	old := st.Module(v)

	w.out.Reset()
	w.in.Reset()

	// Accumulate outgoing flow per neighbor module (Alg. 1 lines 4–13).
	lo, _ := g.OutRange(v)
	nb := g.OutNeighbors(v)
	links := 0
	for i := range nb {
		t := int(nb[i])
		if t == v {
			continue
		}
		w.stats.Work.ArcsProcessed++
		w.out.Accumulate(st.Module(t), f.OutFlow[lo+i])
		links++
	}
	// Accumulate incoming flow (Alg. 1 line 14).
	ilo, _ := g.InRange(v)
	in := g.InNeighbors(v)
	for i := range in {
		s := int(in[i])
		if s == v {
			continue
		}
		w.stats.Work.ArcsProcessed++
		w.in.Accumulate(st.Module(s), f.InFlow[ilo+i])
		links++
	}
	if links == 0 {
		// Isolated vertex (or only self-loops): no neighbor module to join.
		return proposal{}, false
	}

	view := f.View(v)
	if w.mergedGather {
		return w.candidatesMerged(st, view, old)
	}
	return w.candidatesLookup(st, view, old)
}

// better reports whether candidate module m with ΔL d improves on best. The
// ΔL tie-break on the smaller module ID matters for determinism: the hash
// table's Gather order depends on its capacity history, which varies with
// which worker's table processed the vertex, so exact-ΔL ties would
// otherwise resolve differently across worker counts and steal schedules.
func better(best proposal, m uint32, d float64, old uint32) bool {
	if d < best.delta {
		return true
	}
	return d == best.delta && best.target != old && m < best.target
}

// candidatesLookup is the Baseline candidate scan (Alg. 1 lines 15–25):
// iterate the out-flow hash table and point-look-up the in-flow table.
func (w *worker) candidatesLookup(st *mapeq.State, view mapeq.NodeView, old uint32) (proposal, bool) {
	w.outBuf = w.out.Gather(w.outBuf[:0])
	outOld, _ := w.out.Lookup(old)
	inOld, _ := w.in.Lookup(old)

	dep := st.Prepare(view, outOld, inOld)
	best := proposal{node: uint32(view.Node), target: old, wid: int32(w.id)}
	for _, kv := range w.outBuf {
		if kv.Key == old {
			continue
		}
		inFlow, _ := w.in.Lookup(kv.Key)
		w.stats.Work.CandidatesEvaluated++
		d := dep.Delta(kv.Key, kv.Value, inFlow)
		if better(best, kv.Key, d, old) {
			best = proposal{node: uint32(view.Node), target: kv.Key, wid: int32(w.id), delta: d}
		}
	}
	// Directed graphs can have candidate modules reachable only via
	// in-links; Algorithm 1's line 14 surfaces them the same way.
	w.inBuf = w.in.Gather(w.inBuf[:0])
	for _, kv := range w.inBuf {
		if kv.Key == old {
			continue
		}
		if _, seen := w.out.Lookup(kv.Key); seen {
			continue // already evaluated above
		}
		w.stats.Work.CandidatesEvaluated++
		d := dep.Delta(kv.Key, 0, kv.Value)
		if better(best, kv.Key, d, old) {
			best = proposal{node: uint32(view.Node), target: kv.Key, wid: int32(w.id), delta: d}
		}
	}
	return best, best.target != old && best.delta < 0
}

// candidatesMerged is the ASA candidate scan (Alg. 2 lines 9–14): gather both
// CAMs (with sort_and_merge on overflow), sort the pair vectors, and walk
// them with a two-pointer merge.
func (w *worker) candidatesMerged(st *mapeq.State, view mapeq.NodeView, old uint32) (proposal, bool) {
	w.outBuf = w.out.Gather(w.outBuf[:0])
	w.inBuf = w.in.Gather(w.inBuf[:0])
	sortKV(w.outBuf)
	sortKV(w.inBuf)

	var outOld, inOld float64
	if i := findKV(w.outBuf, old); i >= 0 {
		outOld = w.outBuf[i].Value
	}
	if i := findKV(w.inBuf, old); i >= 0 {
		inOld = w.inBuf[i].Value
	}

	dep := st.Prepare(view, outOld, inOld)
	best := proposal{node: uint32(view.Node), target: old, wid: int32(w.id)}
	i, j := 0, 0
	for i < len(w.outBuf) || j < len(w.inBuf) {
		var m uint32
		var of, nf float64
		switch {
		case j >= len(w.inBuf) || (i < len(w.outBuf) && w.outBuf[i].Key < w.inBuf[j].Key):
			m, of = w.outBuf[i].Key, w.outBuf[i].Value
			i++
		case i >= len(w.outBuf) || w.inBuf[j].Key < w.outBuf[i].Key:
			m, nf = w.inBuf[j].Key, w.inBuf[j].Value
			j++
		default:
			m, of, nf = w.outBuf[i].Key, w.outBuf[i].Value, w.inBuf[j].Value
			i++
			j++
		}
		if m == old {
			continue
		}
		w.stats.Work.CandidatesEvaluated++
		d := dep.Delta(m, of, nf)
		if better(best, m, d, old) {
			best = proposal{node: uint32(view.Node), target: m, wid: int32(w.id), delta: d}
		}
	}
	return best, best.target != old && best.delta < 0
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
