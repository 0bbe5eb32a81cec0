package infomap

import (
	"context"
	"fmt"
	"runtime"

	"github.com/asamap/asamap/internal/accum"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/pagerank"
	"github.com/asamap/asamap/internal/perf"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/sched"
	"github.com/asamap/asamap/internal/trace"
)

// Run detects communities in g by minimizing the map equation, using the
// multi-level greedy scheme of HyPC-Map:
//
//  1. PageRank: compute the stationary random-walk flow (closed form for
//     undirected graphs, power iteration with teleportation for directed).
//  2. FindBestCommunity: repeated parallel sweeps over all vertices; each
//     vertex greedily joins the neighboring module that shrinks L(M) most,
//     with per-module flows accumulated through the configured backend.
//  3. Convert2SuperNode: contract each module to a super node carrying the
//     aggregated flow.
//  4. UpdateMembers: commit the moves / propagate module IDs to the leaves.
//
// Steps 2–4 repeat on the contracted graph until no further compression.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	// Documented non-cancellable convenience entry point; callers who need
	// preemption use RunContext.
	return RunContext(context.Background(), g, opt)
}

// RunContext is Run under a context: cancellation is observed between
// kernels and at every optimization-sweep boundary, returning ctx.Err()
// promptly without leaking worker goroutines. Worker panics are recovered
// and surfaced as errors instead of crashing the process.
func RunContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	res, _, err := runContext(ctx, g, opt, nil)
	return res, err
}

// A LevelOptimizer is the move phase of one level of a run: it moves the
// vertices of flow between modules on st until the level converges and
// returns the sweeps it ran and the moves it committed. st arrives Reset on
// the level's starting membership, with the leaf node term. Each sweep
// appends one trace.Sweep to res.SweepLog and opens one "sweep" span under
// lv with a FindBestCommunity and an UpdateMembers child. frozen, non-nil
// only at the leaf level of a frontier-restricted warm run, marks the
// vertices that must not move. scanners are the run's candidate scans and
// r its visitation-order source.
type LevelOptimizer func(ctx context.Context, st *mapeq.State, flow *mapeq.Flow, scanners []*Scanner,
	r *rng.RNG, level int, res *Result, lv *obs.Span, frozen []bool) (sweeps int, moves uint64, err error)

// RunWith is RunContext with optimize as every level's move phase in place
// of the shared-memory parallel sweep. Everything else is the one driver:
// the base flow, warm start and frontier, the level and outer loops,
// contraction, the final evaluation and the span tree.
func RunWith(ctx context.Context, g *graph.Graph, opt Options, optimize LevelOptimizer) (*Result, error) {
	res, _, err := runContext(ctx, g, opt, optimize)
	return res, err
}

// BaseFlow builds the flow a run with opt optimizes on g: the closed-form
// flow of an undirected graph, or PageRank (opt.Damping, opt.Workers) and
// the teleportation model opt.Teleport on a directed one.
func BaseFlow(ctx context.Context, g *graph.Graph, opt Options) (*mapeq.Flow, error) {
	if !g.Directed() {
		return mapeq.NewUndirectedFlow(g)
	}
	cfg := pagerank.DefaultConfig()
	cfg.Damping = opt.Damping
	cfg.Workers = opt.Workers
	pr, err := pagerank.ComputeContext(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	if opt.Teleport == TeleportUnrecorded {
		return mapeq.NewDirectedFlowUnrecorded(g, pr.Rank, opt.Damping)
	}
	return mapeq.NewDirectedFlow(g, pr.Rank, opt.Damping)
}

// runContext is RunContext that also returns the base flow it ran on.
// optimize nil selects the shared-memory sweep, optimizeLevel.
func runContext(ctx context.Context, g *graph.Graph, opt Options, optimize LevelOptimizer) (*Result, *mapeq.Flow, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Span tree root of this run. opt.Trace nil makes every span below nil,
	// and nil spans absorb all calls, so the untraced path stays branch-free.
	// Worker count never changes result bytes, so it is a volatile
	// attribute — excluded from the canonical tree that the determinism
	// tests compare across schedules.
	run := opt.Trace.Child("run")
	run.SetUint("seed", opt.Seed)
	run.SetAttr("kind", opt.Kind.String())
	run.SetAttr("teleport", opt.Teleport.String())
	run.SetUint("vertices", uint64(g.N()))
	run.SetVolatileUint("workers", uint64(opt.Workers))
	defer run.End()

	// --- Kernel 1: PageRank / flow construction. ---
	prSpan := run.Child(trace.KernelPageRank)
	baseFlow, err := BaseFlow(ctx, g, opt)
	if err != nil {
		return nil, nil, err
	}
	prSpan.End()

	// Size each worker's accumulators for the largest neighborhood they can
	// see: one session holds at most one entry per distinct neighbor module,
	// bounded by the vertex degree. Deriving the hint from the graph instead
	// of a fixed constant keeps large-hub (power-law) graphs from paying
	// rehash/growth churn in every hot session. Contracted levels can in
	// principle exceed the leaf bound (a sparse graph may contract to a dense
	// quotient), so the hint is a starting size, not a hard capacity.
	accumHint := g.MaxDegree()
	workers := make([]*Scanner, opt.Workers)
	for i := range workers {
		w, err := NewScanner(opt, accumHint)
		if err != nil {
			return nil, nil, err
		}
		workers[i] = w
	}
	pool := sched.NewPool(opt.Workers)
	defer pool.Close()
	if optimize == nil {
		optimize = func(ctx context.Context, st *mapeq.State, flow *mapeq.Flow, workers []*Scanner,
			r *rng.RNG, level int, res *Result, lv *obs.Span, frozen []bool) (int, uint64, error) {
			return optimizeLevel(ctx, st, flow, workers, pool, opt, r, level, res, lv, frozen)
		}
	}

	res := &Result{Membership: make([]uint32, g.N())}
	for i := range res.Membership {
		res.Membership[i] = uint32(i)
	}

	// Warm start: seed the global partition from the parent version and,
	// when the delta's touched set is known, freeze every leaf vertex
	// outside its k-hop frontier. frozen == nil means no restriction — both
	// for cold runs and for warm runs whose frontier covers the whole
	// graph, which is exactly what makes full-coverage warm runs
	// byte-identical to unrestricted ones.
	var frozen []bool
	run.SetBool("warm_start", opt.WarmStart != nil)
	if opt.WarmStart != nil {
		if len(opt.WarmStart) != g.N() {
			return nil, nil, fmt.Errorf("infomap: WarmStart length %d, want %d", len(opt.WarmStart), g.N())
		}
		copy(res.Membership, opt.WarmStart)
		seeded := make(map[uint32]struct{}, 64)
		for _, m := range opt.WarmStart {
			seeded[m] = struct{}{}
		}
		// The seeded module count is the structure reused from the parent
		// version — the "levels reused" signal: a cold run would have to
		// rebuild this partition through its whole hierarchy.
		run.SetUint("warm_modules_seeded", uint64(len(seeded)))
		res.FrontierSize = g.N()
		if len(opt.FrontierSeeds) > 0 {
			fr := graph.KHopFrontier(g, opt.FrontierSeeds, opt.FrontierHops)
			size := 0
			for _, in := range fr {
				if in {
					size++
				}
			}
			if size < g.N() {
				frozen = make([]bool, g.N())
				for v, in := range fr {
					frozen[v] = !in
				}
			}
			res.FrontierSize = size
			res.FrozenVertices = g.N() - size
		}
		run.SetUint("frontier_hops", uint64(opt.FrontierHops))
		run.SetUint("frontier_seeds", uint64(len(opt.FrontierSeeds)))
		run.SetUint("frontier_size", uint64(res.FrontierSize))
		run.SetUint("frontier_frozen", uint64(res.FrozenVertices))
	}

	if g.N() == 0 {
		res.PerWorker = collectWorkerStats(workers)
		return res, baseFlow, nil
	}

	// One State and one membership buffer serve the whole run: every level
	// and every outer-iteration check Reset them in place, so they are
	// allocated once, at the leaf level's size (no level is larger).
	st := new(mapeq.State)
	mem := make([]uint32, g.N())
	// Leaf-level node term is carried through all super-node levels so that
	// codelengths remain those of the original vertices.
	leafNodeTerm := baseFlow.NodeTerm()
	res.OneLevelCodelength = mapeq.OneLevelCodelength(baseFlow)

	r := rng.New(opt.Seed)

	// Outer tune loop (the reference Infomap's core loop): fine-tune leaf
	// vertices from the current partition, rebuild the super-node hierarchy
	// from the refined partition, and repeat while the codelength improves.
	bestL := res.OneLevelCodelength
	outerIters := 0
	for outer := 0; outer < opt.OuterIters; outer++ {
		outerIters++
		movesBefore := res.Moves
		flow := baseFlow
		for level := 0; level < opt.MaxLevels; level++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			n := flow.G.N()
			membership := mem[:n]
			if level == 0 {
				// Leaf level: start from the current global partition
				// (singletons on the first outer iteration) so earlier merges
				// can be undone vertex by vertex.
				copy(membership, res.Membership)
				mapeq.CompactMembership(membership)
			} else {
				for i := range membership {
					membership[i] = uint32(i)
				}
			}
			if _, err := st.Reset(flow, membership, n); err != nil {
				return nil, nil, err
			}
			st.OverrideNodeTerm(leafNodeTerm)
			res.Levels++

			lv := run.Child("level")
			lv.SetUint("outer", uint64(outer))
			lv.SetUint("level", uint64(level))
			lv.SetUint("vertices", uint64(n))

			// The frontier restriction applies at the leaf level only: super
			// levels operate on contracted modules, where freezing would
			// veto merges the map equation wants regardless of the delta.
			var fz []bool
			if level == 0 && frozen != nil {
				fz = frozen
				// Account the masked-out vertices once per level entry; the
				// perf model prices each as a ~2-instruction mask test
				// against the ~60 a full evaluation costs — the modeled
				// saving of warm start.
				workers[0].stats.Work.FrontierFrozen += uint64(res.FrozenVertices)
				lv.SetUint("frontier_frozen", uint64(res.FrozenVertices))
			}
			sweeps, moves, err := optimize(ctx, st, flow, workers, r, level, res, lv, fz)
			res.Sweeps += sweeps
			res.Moves += moves
			lv.SetUint("sweeps", uint64(sweeps))
			lv.SetUint("moves", moves)
			if err != nil {
				lv.End()
				return nil, nil, err
			}

			// --- Kernel 3/4: contract modules to super nodes. ---
			cs := lv.Child(trace.KernelConvert2SuperNode)
			k := mapeq.CompactMembership(membership)
			if level == 0 {
				copy(res.Membership, membership)
			} else {
				for v := range res.Membership {
					res.Membership[v] = membership[res.Membership[v]]
				}
			}
			if (level > 0 && k == n) || k == 1 {
				// No merging at a super level, or everything merged:
				// the hierarchy has converged.
				cs.SetUint("modules", uint64(k))
				cs.End()
				lv.End()
				break
			}
			flow, err = flow.ContractParallel(membership, k, pool)
			if err != nil {
				return nil, nil, err
			}
			cs.SetUint("modules", uint64(k))
			cs.End()
			lv.End()
		}

		// Evaluate the outer iteration's result from scratch on the base
		// flow — the honest number, free of any incremental drift. Every
		// exit from this loop leaves st reset on the compacted partition in
		// mem, so this Reset also yields the run's final codelength.
		copy(mem, res.Membership)
		res.NumModules = mapeq.CompactMembership(mem)
		if _, err := st.Reset(baseFlow, mem, res.NumModules); err != nil {
			return nil, nil, err
		}
		l := st.Codelength()
		// An iteration that moved nothing on any level leaves the next one
		// the same partition, frozen mask and State. Its sweeps would
		// propose exactly the moves this one refused, whatever their order,
		// so it would move nothing and return this same l: stop here.
		if res.Moves == movesBefore || bestL-l < opt.MinImprovement {
			break
		}
		bestL = l
	}
	copy(res.Membership, mem)
	res.Codelength = st.Codelength()

	// A fragmented two-level code can price worse than the trivial
	// one-module code on graphs with little community structure; like the
	// reference Infomap, fall back to the one-level solution then.
	if res.Codelength > res.OneLevelCodelength {
		for i := range res.Membership {
			res.Membership[i] = 0
		}
		res.Codelength = res.OneLevelCodelength
		res.NumModules = 1
	}

	res.PerWorker = collectWorkerStats(workers)
	run.SetUint("modules", uint64(res.NumModules))
	run.SetFloat("codelength", res.Codelength)
	run.SetUint("outer_iters", uint64(outerIters))
	run.SetUint("levels", uint64(res.Levels))
	run.SetUint("sweeps", uint64(res.Sweeps))
	run.SetUint("moves", res.Moves)
	return res, baseFlow, nil
}

func collectWorkerStats(workers []*Scanner) []WorkerStats {
	out := make([]WorkerStats, len(workers))
	for i, w := range workers {
		out[i] = w.Stats()
	}
	return out
}

// sweepBlocksPerWorker oversubscribes steal-mode sweeps: more blocks than
// workers gives the stealing tail something to rebalance with. Eight per
// worker keeps per-block dispatch overhead negligible against typical
// block work while bounding the worst-case tail at ~1/8 of a worker's span.
const sweepBlocksPerWorker = 8

// sweepMinBlockVertices stops oversubscription from shattering small levels
// into blocks too tiny to amortize the dispatch atomics.
const sweepMinBlockVertices = 32

// sweepBounds partitions the order[0:m] of a sweep into schedulable blocks
// for the work-stealing pool. Blocks are degree-aware — boundaries follow
// the prefix sum of adjacency sizes, so a block holding one huge hub stays
// small in vertex count and a block of leaves stays large, equalizing
// per-block work up front. One worker has nobody to balance against, so it
// gets the whole order as one block without the weighting pass.
func sweepBounds(flow *mapeq.Flow, order []uint32, workers int) []int {
	m := len(order)
	if workers == 1 {
		return sched.UniformBounds(m, 1)
	}
	blocks := workers * sweepBlocksPerWorker
	if maxBlocks := (m + sweepMinBlockVertices - 1) / sweepMinBlockVertices; blocks > maxBlocks {
		blocks = maxBlocks
	}
	g := flow.G
	return sched.WeightedBounds(m, blocks, func(i int) int64 {
		v := int(order[i])
		return int64(g.OutDegree(v)+g.InDegree(v)) + 1
	})
}

// optimizeLevel runs FindBestCommunity sweeps on one level until the
// codelength stops improving. Each sweep evaluates all vertices in parallel
// against a frozen state snapshot (read-only), then commits the improving
// moves serially with a ΔL re-check — the relaxed two-phase concurrency that
// shared-memory parallel Infomap implementations use. Cancellation is
// checked once per sweep; a panic in any worker aborts the level with an
// error after all workers of the sweep have finished (so no goroutine
// outlives the call).
func optimizeLevel(ctx context.Context, st *mapeq.State, flow *mapeq.Flow, workers []*Scanner,
	pool *sched.Pool, opt Options, r *rng.RNG, level int, res *Result,
	lvSpan *obs.Span, frozen []bool) (sweeps int, totalMoves uint64, err error) {

	n := flow.G.N()
	// Active-vertex optimization (as in RelaxMap/HyPC-Map): only vertices
	// whose neighborhood changed in the previous sweep are re-evaluated, so
	// per-iteration work shrinks as the partition converges — the decreasing
	// per-iteration times of the paper's Tables III/IV. A warm-start frozen
	// mask (leaf level only) removes out-of-frontier vertices from the very
	// first sweep and keeps neighbor activation from waking them later: the
	// delta's influence can spread k hops, no further.
	active := make([]bool, n)
	for i := range active {
		active[i] = frozen == nil || !frozen[i]
	}
	order := make([]uint32, 0, n)
	// Per-block proposal buffers, reused across sweeps. Proposals are kept
	// per block rather than per worker so that concatenating the buffers in
	// block index order yields exactly the shuffled visitation order — the
	// commit sequence is then independent of which worker ran (or stole)
	// which block, which is what makes results bit-identical across worker
	// counts and steal schedules.
	var props [][]proposal

	prevL := st.Codelength()
	for sweep := 0; sweep < opt.MaxSweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return sweeps, totalMoves, err
		}
		order = order[:0]
		for v := 0; v < n; v++ {
			if active[v] {
				order = append(order, uint32(v))
			}
		}
		if len(order) == 0 {
			break
		}
		r.ShuffleUint32(order)
		preStats, preWork := liveTotals(workers)

		sw := lvSpan.Child("sweep")
		sw.SetUint("sweep", uint64(sweep))
		sw.SetUint("active", uint64(len(order)))

		// --- Kernel 2: FindBestCommunity (parallel, read-only). ---
		fbc := sw.Child(trace.KernelFindBestCommunity)
		bounds := sweepBounds(flow, order, len(workers))
		nblocks := len(bounds) - 1
		for len(props) < nblocks {
			props = append(props, nil)
		}
		ds, err := pool.DispatchTraced(bounds, func(wid, blk, lo, hi int) error {
			var perr error
			props[blk], perr = safeEvaluateBlock(workers[wid], wid, st, flow, order, lo, hi, props[blk][:0])
			return perr
		}, fbc)
		fbc.SetVolatileUint("blocks", uint64(nblocks))
		fbc.End()
		if err != nil {
			sw.End()
			return sweeps, totalMoves, err
		}
		res.Steals += ds.Steals

		// --- Kernel 4: UpdateMembers (serial commit with re-check). ---
		um := sw.Child(trace.KernelUpdateMembers)
		for i := range active {
			active[i] = false
		}
		moves := uint64(0)
		// Blocks partition the shuffled order, so walking them in index
		// order commits proposals in exactly the order a serial sweep
		// would have visited the vertices.
		for blk := 0; blk < nblocks; blk++ {
			for _, p := range props[blk] {
				v := int(p.node)
				// Earlier commits in this sweep may have moved this vertex's
				// neighbors, so the flows captured during parallel evaluation
				// can be stale. CommitMove recomputes them against the
				// *current* membership (a plain adjacency walk —
				// synchronization bookkeeping, not part of the modeled hash
				// workload) and re-evaluates ΔL; committing only exact
				// improvements makes the codelength strictly decreasing and
				// immune to the oscillations synchronous parallel updates are
				// prone to.
				if workers[p.wid].CommitMove(st, flow, v, p.target) {
					moves++
					// The moved vertex and its neighborhood become active —
					// except vertices the warm-start frontier froze, which
					// never re-enter the sweep order.
					active[v] = true
					for _, t := range flow.G.OutNeighbors(v) {
						if frozen == nil || !frozen[t] {
							active[t] = true
						}
					}
					for _, t := range flow.G.InNeighbors(v) {
						if frozen == nil || !frozen[t] {
							active[t] = true
						}
					}
				}
			}
		}
		// Wash accumulated floating-point drift out of the incremental
		// aggregates after every sweep that moved something. A sweep with
		// no move left the state exactly as its last Reset or Refresh
		// built it, so refreshing it again would change no bit.
		if moves > 0 {
			st.Refresh()
		}
		um.SetUint("moves", moves)
		um.End()

		postStats, postWork := liveTotals(workers)
		sweepStats := postStats.Sub(preStats)
		res.SweepLog = append(res.SweepLog, trace.Sweep{
			Level:     level,
			Stats:     sweepStats,
			Work:      postWork.Sub(preWork),
			Imbalance: ds.Imbalance,
			Busy:      ds.BusyTotal(),
			Steals:    ds.Steals,
		})

		// The four CAM counters of the paper's evaluation — and the
		// HashGraph resolve counters — are sums over per-vertex accumulator
		// sessions, so they are schedule-invariant and safe as deterministic
		// attributes; dispatch shape (steals, imbalance) is volatile by
		// construction.
		sw.SetUint("cam_hits", sweepStats.Hits)
		sw.SetUint("cam_misses", sweepStats.Misses)
		sw.SetUint("cam_evictions", sweepStats.Evictions)
		sw.SetUint("cam_overflow_kv", sweepStats.OverflowKV)
		sw.SetUint("hg_binned_kv", sweepStats.BinnedKV)
		sw.SetUint("hg_scattered_kv", sweepStats.ScatteredKV)
		sw.SetUint("hg_bin_merged_kv", sweepStats.BinMergedKV)
		sw.SetUint("moves", moves)
		sw.SetFloat("codelength", st.Codelength())
		sw.SetVolatileUint("steals", ds.Steals)
		sw.SetVolatileFloat("imbalance", ds.Imbalance)
		sw.End()

		sweeps++
		totalMoves += moves
		l := st.Codelength()
		if moves == 0 || prevL-l < opt.MinImprovement {
			break
		}
		prevL = l
	}
	return sweeps, totalMoves, nil
}

// safeEvaluateBlock runs one block of a FindBestCommunity sweep, converting
// any panic (a bug in an accumulator backend, an out-of-range module ID)
// into an error so one bad worker cannot take down the caller's process.
func safeEvaluateBlock(w *Scanner, wid int, st *mapeq.State, flow *mapeq.Flow, order []uint32, lo, hi int, dst []proposal) (out []proposal, err error) {
	defer func() {
		if p := recover(); p != nil {
			out = dst
			err = fmt.Errorf("infomap: worker %d panicked: %v", wid, p)
		}
	}()
	return w.evaluateBlock(st, flow, order, lo, hi, int32(wid), dst), nil
}

// liveTotals sums the cumulative accumulator stats and kernel work over all
// workers at this instant (used to delta out per-sweep event counts).
func liveTotals(workers []*Scanner) (accum.Stats, perf.KernelWork) {
	var st accum.Stats
	var wk perf.KernelWork
	for _, w := range workers {
		ws := w.Stats()
		st.Add(ws.Accum)
		wk.Add(ws.Work)
	}
	return st, wk
}

// Modules groups vertex IDs by final module, returning a slice of modules
// each holding its member vertices, ordered by module ID.
func Modules(membership []uint32) [][]int {
	k := 0
	for _, m := range membership {
		if int(m)+1 > k {
			k = int(m) + 1
		}
	}
	out := make([][]int, k)
	for v, m := range membership {
		out[m] = append(out[m], v)
	}
	return out
}

// String summarizes a result for logs and examples.
func (r *Result) String() string {
	return fmt.Sprintf("modules=%d L=%.4f bits (one-level %.4f, %.1f%% compression) levels=%d sweeps=%d moves=%d",
		r.NumModules, r.Codelength, r.OneLevelCodelength,
		100*(1-r.Codelength/r.OneLevelCodelength), r.Levels, r.Sweeps, r.Moves)
}
