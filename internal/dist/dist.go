// Package dist simulates the distributed-memory layer of HyPC-Map: the paper
// builds on a hybrid MPI+shared-memory parallel Infomap [14], so this
// substrate reproduces its structure — vertices block-partitioned across
// ranks, bulk-synchronous supersteps of local FindBestCommunity sweeps over
// possibly stale ghost membership, and membership-delta exchange between
// supersteps — while counting every simulated message and byte. An
// alpha-beta (latency-bandwidth) model converts the communication volume
// into modeled time, so the harness can study how the hybrid scheme scales.
//
// MPI itself is unavailable (and unnecessary) here: ranks run in one process
// and the "network" is accounting. What is preserved is the algorithmic
// behaviour that distribution causes — staleness of remote module state
// within a superstep and convergence driven by delta exchange.
//
// The substrate is fault-tolerant: each rank holds its own ghost copy of the
// global membership, and the delta exchange runs through an optional
// fault.Injector that can drop, duplicate, or delay delta batches and crash
// ranks at chosen supersteps. Dropped batches are retransmitted with
// exponential backoff and jitter, every rank checkpoints its ghost
// membership at configurable superstep intervals, and a crashed rank
// recovers by restoring its last checkpoint and replaying the missed deltas
// from the cluster's delta log. While a rank is down the others keep making
// bounded-staleness progress on their own blocks (graceful degradation).
// Because committed moves are re-validated against the authoritative state
// before they apply, any fault schedule leaves the final partition a fixed
// point of the same greedy — recovery preserves the algorithm.
package dist

import (
	"context"
	"fmt"

	"github.com/asamap/asamap/internal/fault"
	"github.com/asamap/asamap/internal/graph"
	"github.com/asamap/asamap/internal/infomap"
	"github.com/asamap/asamap/internal/mapeq"
	"github.com/asamap/asamap/internal/rng"
)

// Options configures the simulated cluster.
type Options struct {
	Ranks          int     // number of simulated MPI ranks
	MaxSupersteps  int     // BSP superstep bound per level
	MaxLevels      int     // contraction depth bound
	MinImprovement float64 // codelength improvement threshold
	Seed           uint64
	// Communication model: per-message latency (alpha, seconds) and
	// per-byte transfer time (1/bandwidth, seconds).
	AlphaSec       float64
	BytePerSec     float64 // bytes per second of link bandwidth
	BytesPerUpdate int     // wire size of one membership delta (vertex, module)
	// Fault describes the injected fault scenario; the zero value injects
	// nothing and the simulation behaves exactly as a perfect network.
	Fault fault.Config
	// CheckpointEvery is the number of supersteps between ghost-membership
	// checkpoints (crash-recovery granularity). Minimum 1.
	CheckpointEvery int
	// MaxRetryBackoff caps the exponential retransmission backoff, in
	// supersteps. Minimum 1.
	MaxRetryBackoff int
	// WarmStart, when non-nil, seeds the leaf-level partition instead of the
	// all-singletons start: vertex v begins in module WarmStart[v]. Module
	// ids are compacted on entry; the length must equal the graph's vertex
	// count. This is the distributed mirror of infomap.Options.WarmStart —
	// the delta-log, checkpoint, and crash-recovery machinery is reused
	// unchanged, because a warm seed only changes the level-0 state that
	// ranks checkpoint and replay.
	WarmStart []uint32
}

// DefaultOptions returns an 8-rank cluster with 1µs latency, 10 GB/s links,
// 8-byte membership updates, per-superstep checkpoints, and no faults.
func DefaultOptions() Options {
	return Options{
		Ranks:           8,
		MaxSupersteps:   30,
		MaxLevels:       30,
		MinImprovement:  1e-9,
		Seed:            1,
		AlphaSec:        1e-6,
		BytePerSec:      10e9,
		BytesPerUpdate:  8,
		Fault:           fault.Disabled(),
		CheckpointEvery: 1,
		MaxRetryBackoff: 4,
	}
}

func (o Options) validate() error {
	if o.Ranks < 1 {
		return fmt.Errorf("dist: Ranks %d < 1", o.Ranks)
	}
	if o.MaxSupersteps < 1 || o.MaxLevels < 1 {
		return fmt.Errorf("dist: MaxSupersteps/MaxLevels must be >= 1")
	}
	if o.AlphaSec < 0 || o.BytePerSec <= 0 || o.BytesPerUpdate <= 0 {
		return fmt.Errorf("dist: invalid communication model")
	}
	if o.CheckpointEvery < 1 {
		return fmt.Errorf("dist: CheckpointEvery %d < 1", o.CheckpointEvery)
	}
	if o.MaxRetryBackoff < 1 {
		return fmt.Errorf("dist: MaxRetryBackoff %d < 1", o.MaxRetryBackoff)
	}
	if err := o.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// CommStats aggregates the simulated communication and fault recovery.
type CommStats struct {
	Supersteps     int
	Messages       uint64 // point-to-point delta-batch messages (incl. retries)
	Bytes          uint64 // payload bytes moved (incl. retries and duplicates)
	UpdatesSent    uint64 // membership deltas exchanged
	ModeledCommSec float64

	// Fault-tolerance accounting.
	Drops            uint64  // delta batches lost by the injected network
	Retries          uint64  // retransmissions sent after a drop timeout
	RedeliveredBytes uint64  // duplicate- and recovery-replay payload bytes
	Recoveries       uint64  // rank recoveries from checkpoint
	CheckpointBytes  uint64  // ghost-membership checkpoint payload written
	BackoffSec       float64 // modeled retransmission-timeout wait
}

// Result is the outcome of a distributed run.
type Result struct {
	Membership         []uint32
	NumModules         int
	Codelength         float64
	OneLevelCodelength float64
	Levels             int
	Comm               CommStats
	Fault              fault.Stats // faults the injector actually issued
	// Work is the ranks' scan work and accumulator events, summed over
	// every superstep of every level.
	Work infomap.WorkerStats
}

// Run executes the simulated distributed Infomap.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	// Documented non-cancellable convenience entry point; callers who need
	// preemption use RunContext.
	return RunContext(context.Background(), g, opt)
}

// RunContext executes the simulated distributed Infomap under a context;
// cancellation is observed at every superstep boundary.
func RunContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.Directed() {
		return nil, fmt.Errorf("dist: directed graphs not supported by the distributed simulation")
	}
	if opt.WarmStart != nil && len(opt.WarmStart) != g.N() {
		return nil, fmt.Errorf("dist: WarmStart has %d entries for %d vertices",
			len(opt.WarmStart), g.N())
	}
	injector, err := fault.New(opt.Fault)
	if err != nil {
		return nil, err
	}
	res := &Result{Membership: make([]uint32, g.N())}
	for i := range res.Membership {
		res.Membership[i] = uint32(i)
	}
	if g.N() == 0 {
		return res, nil
	}
	baseFlow, err := mapeq.NewUndirectedFlow(g)
	if err != nil {
		return nil, err
	}
	leafNodeTerm := baseFlow.NodeTerm()
	res.OneLevelCodelength = mapeq.OneLevelCodelength(baseFlow)

	// Ranks evaluate one after another, so one Scanner on the Baseline
	// backend serves them all.
	sc, err := infomap.NewScanner(infomap.DefaultOptions(), g.MaxDegree())
	if err != nil {
		return nil, err
	}
	r := rng.New(opt.Seed)
	// Crash downtime is tracked in global supersteps so a rank can stay down
	// across a level boundary.
	downUntil := make([]int, opt.Ranks)
	flow := baseFlow
	for level := 0; level < opt.MaxLevels; level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := flow.G.N()
		membership := make([]uint32, n)
		if level == 0 && opt.WarmStart != nil {
			// Warm seed: ranks enter the first level already inside the
			// parent partition's modules instead of as singletons.
			copy(membership, opt.WarmStart)
			mapeq.CompactMembership(membership)
		} else {
			for i := range membership {
				membership[i] = uint32(i)
			}
		}
		res.Levels++
		moves, err := optimizeLevelDistributed(ctx, flow, membership, leafNodeTerm,
			sc, opt, r, &res.Comm, injector, downUntil)
		if err != nil {
			return nil, err
		}
		k := mapeq.CompactMembership(membership)
		if level == 0 {
			copy(res.Membership, membership)
		} else {
			for v := range res.Membership {
				res.Membership[v] = membership[res.Membership[v]]
			}
		}
		if moves == 0 || k == n || k == 1 {
			break
		}
		flow, err = flow.Contract(membership, k)
		if err != nil {
			return nil, err
		}
	}

	mem := append([]uint32(nil), res.Membership...)
	k := mapeq.CompactMembership(mem)
	copy(res.Membership, mem)
	final, err := mapeq.NewState(baseFlow, mem, k)
	if err != nil {
		return nil, err
	}
	res.Codelength = final.Codelength()
	res.NumModules = k
	if res.Codelength > res.OneLevelCodelength {
		for i := range res.Membership {
			res.Membership[i] = 0
		}
		res.Codelength = res.OneLevelCodelength
		res.NumModules = 1
	}
	res.Comm.ModeledCommSec = modeledCommTime(opt, res.Comm)
	res.Fault = injector.Stats()
	res.Work = sc.Stats()
	return res, nil
}

// modeledCommTime applies the alpha-beta model: each superstep performs an
// allgather of deltas (P·(P−1) messages behind log-tree latency), the
// payload crosses the bisection once, and every retransmission timeout adds
// its exponential-backoff wait.
func modeledCommTime(opt Options, c CommStats) float64 {
	if opt.Ranks == 1 {
		return 0
	}
	logP := 0
	for p := 1; p < opt.Ranks; p <<= 1 {
		logP++
	}
	latency := float64(c.Supersteps) * opt.AlphaSec * float64(logP)
	transfer := float64(c.Bytes) / opt.BytePerSec
	return latency + transfer + c.BackoffSec
}

// delta is one committed membership change on the wire.
type delta struct {
	v, m uint32
}

// flight is a delta batch somewhere in the simulated network: either a
// delivery in transit (resend false) or a retransmission waiting out its
// backoff timer (resend true).
type flight struct {
	from, to int
	due      int // local superstep at which it applies / is resent
	gs       int // global superstep of the original send (injector identity)
	attempt  int // retransmission count (0 = original send)
	deltas   []delta
	dup      bool // duplicate copy: payload counts as redelivered bytes
	resend   bool // waiting out a backoff timer, not in transit
}

// cluster is the per-level state of the simulated fault-tolerant BSP engine.
type cluster struct {
	opt   Options
	inj   *fault.Injector
	comm  *CommStats
	ranks int
	// ghosts[rk] is rank rk's view of the global membership, updated only by
	// its own commits and by delivered delta batches — stale whenever the
	// network misbehaves.
	ghosts [][]uint32
	// ckpt[rk] is rank rk's last ghost checkpoint, taken at the end of local
	// superstep ckptStep[rk].
	ckpt     [][]uint32
	ckptStep []int
	// deltaLog[s] lists every delta committed at local superstep s; crash
	// recovery replays the suffix after the restored checkpoint.
	deltaLog [][]delta
	pending  []flight
	// downUntil[rk] (global supersteps, shared across levels) is when a
	// crashed rank comes back; needsRecovery marks it for checkpoint restore.
	downUntil     []int
	needsRecovery []bool
}

// send pushes one delta batch from rank `from` toward rank `to`, consulting
// the injector for the outcome. gs is the original send's global superstep
// (the batch's identity for deterministic injector draws), step the current
// local superstep, attempt the retransmission count.
func (c *cluster) send(gs, step, from, to, attempt int, deltas []delta) {
	bytes := uint64(len(deltas)) * uint64(c.opt.BytesPerUpdate)
	c.comm.Messages++
	c.comm.Bytes += bytes
	if attempt > 0 {
		c.comm.Retries++
		c.comm.RedeliveredBytes += bytes
	}
	switch c.inj.Outcome(gs, from, to, attempt) {
	case fault.Deliver:
		c.pending = append(c.pending, flight{from: from, to: to, due: step + 1, gs: gs, attempt: attempt, deltas: deltas})
	case fault.Delay:
		// One superstep late: the receiver's ghost stays stale for an extra
		// superstep, exactly the staleness regime BSP community detection
		// must tolerate.
		c.pending = append(c.pending, flight{from: from, to: to, due: step + 2, gs: gs, attempt: attempt, deltas: deltas})
	case fault.Duplicate:
		// Both copies arrive; application is idempotent, so the second costs
		// only wire bytes (counted as redelivered).
		c.comm.Messages++
		c.comm.Bytes += bytes
		c.comm.RedeliveredBytes += bytes
		c.pending = append(c.pending,
			flight{from: from, to: to, due: step + 1, gs: gs, attempt: attempt, deltas: deltas},
			flight{from: from, to: to, due: step + 1, gs: gs, attempt: attempt, deltas: deltas, dup: true})
	case fault.Drop:
		// The batch is lost; the sender times out and retransmits with
		// exponential backoff plus jitter. The modeled timeout is a
		// round-trip estimate doubled per attempt (alpha-beta accounting).
		c.comm.Drops++
		backoff := 1 << attempt
		if backoff > c.opt.MaxRetryBackoff {
			backoff = c.opt.MaxRetryBackoff
		}
		backoff += c.inj.RetryJitter(gs, from, to, attempt, backoff)
		rtt := 2*c.opt.AlphaSec + float64(bytes)/c.opt.BytePerSec
		c.comm.BackoffSec += rtt * float64(uint64(1)<<uint(min(attempt, 16)))
		c.pending = append(c.pending, flight{from: from, to: to, due: step + backoff, gs: gs, attempt: attempt + 1, deltas: deltas, resend: true})
	}
}

// deliverDue applies (or resends) every flight whose timer expired. Batches
// addressed to a rank that is down are carried forward one superstep — the
// replay path will cover the committed state, but idempotent application
// keeps late arrivals harmless.
func (c *cluster) deliverDue(step, gs int) {
	due := c.pending[:0]
	var keep []flight
	for _, f := range c.pending {
		if f.due > step {
			keep = append(keep, f)
		} else {
			due = append(due, f)
		}
	}
	c.pending = keep
	for _, f := range due {
		switch {
		case f.resend:
			// Backoff timer expired: retransmit (subject to the injector,
			// which may drop the retry again and double the backoff).
			c.send(f.gs, step, f.from, f.to, f.attempt, f.deltas)
		case c.down(f.to, gs):
			f.due = step + 1
			c.pending = append(c.pending, f)
		default:
			ghost := c.ghosts[f.to]
			for _, d := range f.deltas {
				ghost[d.v] = d.m
			}
		}
	}
}

func (c *cluster) down(rk, gs int) bool {
	return rk < len(c.downUntil) && gs < c.downUntil[rk]
}

// optimizeLevelDistributed runs BSP supersteps on one level. Each rank owns
// a contiguous vertex block and evaluates moves against its own ghost copy
// of the global membership (stale within the superstep — and beyond it when
// the injector drops or delays deltas — exactly as a real distributed
// implementation's ghost state is). Deltas are committed against the
// authoritative state at the superstep boundary and broadcast through the
// simulated network.
func optimizeLevelDistributed(ctx context.Context, flow *mapeq.Flow, membership []uint32,
	leafNodeTerm float64, sc *infomap.Scanner, opt Options, r *rng.RNG, comm *CommStats,
	inj *fault.Injector, downUntil []int) (uint64, error) {

	n := flow.G.N()
	truth, err := mapeq.NewState(flow, membership, n)
	if err != nil {
		return 0, err
	}
	truth.OverrideNodeTerm(leafNodeTerm)

	ranks := opt.Ranks
	if ranks > n {
		ranks = n
	}
	// Block partition (HyPC-Map distributes contiguous vertex ranges).
	blocks := make([][]uint32, ranks)
	chunk := (n + ranks - 1) / ranks
	for rk := 0; rk < ranks; rk++ {
		lo := rk * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			blocks[rk] = append(blocks[rk], uint32(v))
		}
	}

	cl := &cluster{
		opt:           opt,
		inj:           inj,
		comm:          comm,
		ranks:         ranks,
		ghosts:        make([][]uint32, ranks),
		ckpt:          make([][]uint32, ranks),
		ckptStep:      make([]int, ranks),
		downUntil:     downUntil,
		needsRecovery: make([]bool, ranks),
	}
	for rk := 0; rk < ranks; rk++ {
		cl.ghosts[rk] = append([]uint32(nil), membership...)
		cl.ckpt[rk] = append([]uint32(nil), membership...)
		// A rank that entered this level mid-downtime recovers from the
		// level-start state once its downtime expires.
		if cl.down(rk, comm.Supersteps) {
			cl.needsRecovery[rk] = true
		}
	}

	totalMoves := uint64(0)
	prevL := truth.Codelength()
	// One evaluation state serves every rank's snapshot: each rank rebuilds
	// it from its ghost membership before evaluating.
	rankState := new(mapeq.State)
	snapshot := make([]uint32, n)
	for step := 0; step < opt.MaxSupersteps; step++ {
		if err := ctx.Err(); err != nil {
			return totalMoves, err
		}
		gs := comm.Supersteps // global superstep id (spans levels)
		comm.Supersteps++

		// 1. Scheduled crashes: the rank loses its volatile ghost state and
		// goes silent for the injector's downtime window.
		for rk := 0; rk < ranks; rk++ {
			if !cl.down(rk, gs) && inj.CrashesAt(rk, gs) {
				downUntil[rk] = gs + inj.DownFor()
				cl.needsRecovery[rk] = true
			}
		}

		// 2. Recoveries: a rank whose downtime expired restores its last
		// checkpoint and replays the deltas the cluster committed since.
		for rk := 0; rk < ranks; rk++ {
			if cl.needsRecovery[rk] && !cl.down(rk, gs) {
				copy(cl.ghosts[rk], cl.ckpt[rk])
				replayed := 0
				for ls := cl.ckptStep[rk]; ls < step; ls++ {
					for _, d := range cl.deltaLog[ls] {
						cl.ghosts[rk][d.v] = d.m
						replayed++
					}
				}
				comm.RedeliveredBytes += uint64(replayed) * uint64(opt.BytesPerUpdate)
				comm.Recoveries++
				cl.needsRecovery[rk] = false
			}
		}

		// 3. The network delivers (or retransmits) everything due.
		cl.deliverDue(step, gs)

		// 4. Proposal phase: each live rank evaluates its block against its
		// own ghost membership. Down ranks are skipped — their vertices stay
		// put while the rest of the cluster degrades gracefully.
		type proposal struct {
			v      uint32
			target uint32
		}
		proposals := make([][]proposal, ranks)
		for rk := 0; rk < ranks; rk++ {
			if cl.down(rk, gs) || cl.needsRecovery[rk] {
				continue
			}
			copy(snapshot, cl.ghosts[rk])
			if _, err := rankState.Reset(flow, snapshot, n); err != nil {
				return totalMoves, err
			}
			rankState.OverrideNodeTerm(leafNodeTerm)
			order := append([]uint32(nil), blocks[rk]...)
			r.ShuffleUint32(order)
			for _, v := range order {
				if t, _, ok := sc.FindBestCommunity(rankState, flow, int(v)); ok {
					proposals[rk] = append(proposals[rk], proposal{v: v, target: t})
				}
			}
		}

		// 5. Superstep boundary: commit improving proposals on the true
		// state (the ΔL re-check makes stale-ghost proposals harmless) and
		// broadcast the resulting membership deltas through the network.
		moves := uint64(0)
		stepDeltas := make([]delta, 0)
		byOwner := make([][]delta, ranks)
		for rk := 0; rk < ranks; rk++ {
			for _, p := range proposals[rk] {
				if truth.CommitMove(flow, int(p.v), p.target) {
					moves++
					dl := delta{v: p.v, m: p.target}
					stepDeltas = append(stepDeltas, dl)
					byOwner[rk] = append(byOwner[rk], dl)
					// The owner sees its own commit immediately.
					cl.ghosts[rk][p.v] = p.target
				}
			}
		}
		truth.Refresh()
		cl.deltaLog = append(cl.deltaLog, stepDeltas)
		if ranks > 1 && moves > 0 {
			comm.UpdatesSent += moves
			for rk := 0; rk < ranks; rk++ {
				if len(byOwner[rk]) == 0 {
					continue
				}
				for dest := 0; dest < ranks; dest++ {
					if dest == rk || cl.down(dest, gs) {
						// A dead peer gets the committed state back through
						// its recovery replay, not the wire.
						continue
					}
					cl.send(gs, step, rk, dest, 0, byOwner[rk])
				}
			}
		}

		// 6. Checkpoint phase: every live rank persists its ghost view.
		if (step+1)%opt.CheckpointEvery == 0 {
			for rk := 0; rk < ranks; rk++ {
				if cl.down(rk, gs) || cl.needsRecovery[rk] {
					continue
				}
				copy(cl.ckpt[rk], cl.ghosts[rk])
				cl.ckptStep[rk] = step + 1
				comm.CheckpointBytes += uint64(n) * uint64(opt.BytesPerUpdate)
			}
		}

		totalMoves += moves
		l := truth.Codelength()
		// Termination requires a fully synchronized cluster: no batches in
		// flight or awaiting retransmission, and no rank down or pending
		// recovery. Declaring convergence earlier could freeze a partition
		// that a recovering rank would still improve.
		synced := len(cl.pending) == 0 && cl.allLive(gs+1)
		if synced && (moves == 0 || prevL-l < opt.MinImprovement) {
			break
		}
		prevL = l
	}
	return totalMoves, nil
}

// allLive reports whether every rank is up and fully recovered at the given
// global superstep.
func (c *cluster) allLive(gs int) bool {
	for rk := 0; rk < c.ranks; rk++ {
		if c.down(rk, gs) || c.needsRecovery[rk] {
			return false
		}
	}
	return true
}

// Compare runs the shared-memory engine on the same graph for quality
// comparison (convenience for the harness).
func Compare(g *graph.Graph, seed uint64) (*infomap.Result, error) {
	opt := infomap.DefaultOptions()
	opt.Seed = seed
	return infomap.Run(g, opt)
}
