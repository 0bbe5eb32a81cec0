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
	"github.com/asamap/asamap/internal/obs"
	"github.com/asamap/asamap/internal/rng"
	"github.com/asamap/asamap/internal/trace"
)

// Options configures the simulated cluster. The algorithm itself — seed,
// sweep and level bounds, flow model, warm start and frontier — is
// Infomap, the same options a shared-memory run takes; a superstep is one
// sweep of its level, so Infomap.MaxSweeps bounds the supersteps per level.
type Options struct {
	Infomap infomap.Options
	Ranks   int // number of simulated MPI ranks
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
}

// DefaultOptions returns an 8-rank cluster running infomap.DefaultOptions
// with 1µs latency, 10 GB/s links, 8-byte membership updates,
// per-superstep checkpoints, and no faults.
func DefaultOptions() Options {
	return Options{
		Infomap:         infomap.DefaultOptions(),
		Ranks:           8,
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
	if o.AlphaSec < 0 || o.BytePerSec <= 0 || o.BytesPerUpdate <= 0 {
		return fmt.Errorf("dist: invalid communication model")
	}
	if o.CheckpointEvery < 1 {
		return fmt.Errorf("dist: CheckpointEvery %d < 1", o.CheckpointEvery)
	}
	if o.MaxRetryBackoff < 1 {
		return fmt.Errorf("dist: MaxRetryBackoff %d < 1", o.MaxRetryBackoff)
	}
	return o.Fault.Validate()
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

// Result is the outcome of a distributed run: the driver's result (its
// Sweeps are the supersteps, PerWorker[0] the ranks' scan work) plus the
// cluster's accounting.
type Result struct {
	*infomap.Result
	Comm  CommStats
	Fault fault.Stats // faults the injector actually issued
}

// Run executes the simulated distributed Infomap.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	// Documented non-cancellable convenience entry point; callers who need
	// preemption use RunContext.
	return RunContext(context.Background(), g, opt)
}

// RunContext executes the simulated distributed Infomap under a context:
// infomap's driver runs the flow, levels, outer loop and contraction, and
// the cluster is each level's move phase. Cancellation is observed at
// every superstep boundary.
func RunContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	inj, err := fault.New(opt.Fault)
	if err != nil {
		return nil, err
	}
	cl := &cluster{opt: opt, inj: inj, downUntil: make([]int, opt.Ranks)}
	res, err := infomap.RunWith(ctx, g, opt.Infomap, cl.optimizeLevel)
	if err != nil {
		return nil, err
	}
	cl.comm.ModeledCommSec = modeledCommTime(opt, cl.comm)
	return &Result{Result: res, Comm: cl.comm, Fault: inj.Stats()}, nil
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
	// float64(...) rounds the product before the sum, so no target fuses
	// the two into one multiply-add.
	latency := float64(float64(c.Supersteps) * opt.AlphaSec * float64(logP))
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

// cluster is the simulated fault-tolerant BSP engine. One value serves a
// whole run, so supersteps, communication and crash downtime count
// globally across levels and outer iterations; the per-rank ghost,
// checkpoint and network state is rebuilt at every level entry.
type cluster struct {
	opt  Options
	inj  *fault.Injector
	comm CommStats
	// downUntil[rk] (global supersteps) is when a crashed rank comes back,
	// so a rank can stay down across a level boundary.
	downUntil []int
	// rankState is the one evaluation state every rank's snapshot is
	// rebuilt into before the rank evaluates.
	rankState mapeq.State

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
	// needsRecovery marks a rank for checkpoint restore once it is back.
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
		// Each product is rounded on its own (float64(x*y)), so no target
		// fuses it into the sum and the bits are the same on every GOARCH.
		rtt := float64(2*c.opt.AlphaSec) + float64(bytes)/c.opt.BytePerSec
		c.comm.BackoffSec += float64(rtt * float64(uint64(1)<<uint(min(attempt, 16))))
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

// optimizeLevel is the cluster's infomap.LevelOptimizer: it runs BSP
// supersteps on one level. Each rank owns a contiguous vertex block and
// evaluates moves against its own ghost copy of the global membership
// (stale within the superstep — and beyond it when the injector drops or
// delays deltas — exactly as a real distributed implementation's ghost
// state is). Deltas are committed against the authoritative state truth at
// the superstep boundary and broadcast through the simulated network.
// Ranks run one after another on scanners[0].
func (c *cluster) optimizeLevel(ctx context.Context, truth *mapeq.State, flow *mapeq.Flow,
	scanners []*infomap.Scanner, r *rng.RNG, level int, res *infomap.Result, lv *obs.Span,
	frozen []bool) (sweeps int, totalMoves uint64, err error) {

	n := flow.G.N()
	membership := truth.Membership()
	sc := scanners[0]
	ranks := min(c.opt.Ranks, n)
	// Block partition (HyPC-Map distributes contiguous vertex ranges).
	// Frozen leaf vertices belong to no block: they propose nothing.
	blocks := make([][]uint32, ranks)
	chunk := (n + ranks - 1) / ranks
	for v := 0; v < n; v++ {
		if frozen == nil || !frozen[v] {
			blocks[v/chunk] = append(blocks[v/chunk], uint32(v))
		}
	}

	c.ranks = ranks
	c.ghosts = make([][]uint32, ranks)
	c.ckpt = make([][]uint32, ranks)
	c.ckptStep = make([]int, ranks)
	c.deltaLog = nil
	c.pending = nil
	c.needsRecovery = make([]bool, ranks)
	for rk := 0; rk < ranks; rk++ {
		c.ghosts[rk] = append([]uint32(nil), membership...)
		c.ckpt[rk] = append([]uint32(nil), membership...)
		// A rank that entered this level mid-downtime recovers from the
		// level-start state once its downtime expires.
		if c.down(rk, c.comm.Supersteps) {
			c.needsRecovery[rk] = true
		}
	}

	prevL := truth.Codelength()
	snapshot := make([]uint32, n)
	for step := 0; step < c.opt.Infomap.MaxSweeps; step++ {
		if err := ctx.Err(); err != nil {
			return sweeps, totalMoves, err
		}
		gs := c.comm.Supersteps // global superstep id (spans levels)
		c.comm.Supersteps++
		pre := sc.Stats()
		sw := lv.Child("sweep")
		sw.SetUint("sweep", uint64(step))
		sw.SetUint("superstep", uint64(gs))

		// 1. Scheduled crashes: the rank loses its volatile ghost state and
		// goes silent for the injector's downtime window.
		for rk := 0; rk < ranks; rk++ {
			if !c.down(rk, gs) && c.inj.CrashesAt(rk, gs) {
				c.downUntil[rk] = gs + c.inj.DownFor()
				c.needsRecovery[rk] = true
			}
		}

		// 2. Recoveries: a rank whose downtime expired restores its last
		// checkpoint and replays the deltas the cluster committed since.
		for rk := 0; rk < ranks; rk++ {
			if c.needsRecovery[rk] && !c.down(rk, gs) {
				copy(c.ghosts[rk], c.ckpt[rk])
				replayed := 0
				for ls := c.ckptStep[rk]; ls < step; ls++ {
					for _, d := range c.deltaLog[ls] {
						c.ghosts[rk][d.v] = d.m
						replayed++
					}
				}
				c.comm.RedeliveredBytes += uint64(replayed) * uint64(c.opt.BytesPerUpdate)
				c.comm.Recoveries++
				c.needsRecovery[rk] = false
			}
		}

		// 3. The network delivers (or retransmits) everything due.
		c.deliverDue(step, gs)

		// 4. Proposal phase: each live rank evaluates its block against its
		// own ghost membership. Down ranks are skipped — their vertices stay
		// put while the rest of the cluster degrades gracefully.
		fbc := sw.Child(trace.KernelFindBestCommunity)
		type proposal struct {
			v      uint32
			target uint32
		}
		proposals := make([][]proposal, ranks)
		active := 0
		for rk := 0; rk < ranks; rk++ {
			if c.down(rk, gs) || c.needsRecovery[rk] {
				continue
			}
			copy(snapshot, c.ghosts[rk])
			if _, err := c.rankState.Reset(flow, snapshot, n); err != nil {
				fbc.End()
				sw.End()
				return sweeps, totalMoves, err
			}
			c.rankState.OverrideNodeTerm(truth.NodeTerm())
			order := append([]uint32(nil), blocks[rk]...)
			r.ShuffleUint32(order)
			active += len(order)
			for _, v := range order {
				if t, _, ok := sc.FindBestCommunity(&c.rankState, flow, int(v)); ok {
					proposals[rk] = append(proposals[rk], proposal{v: v, target: t})
				}
			}
		}
		fbc.End()

		// 5. Superstep boundary: commit improving proposals on the true
		// state (the ΔL re-check makes stale-ghost proposals harmless) and
		// broadcast the resulting membership deltas through the network.
		um := sw.Child(trace.KernelUpdateMembers)
		moves := uint64(0)
		stepDeltas := make([]delta, 0)
		byOwner := make([][]delta, ranks)
		for rk := 0; rk < ranks; rk++ {
			for _, p := range proposals[rk] {
				if sc.CommitMove(truth, flow, int(p.v), p.target) {
					moves++
					dl := delta{v: p.v, m: p.target}
					stepDeltas = append(stepDeltas, dl)
					byOwner[rk] = append(byOwner[rk], dl)
					// The owner sees its own commit immediately.
					c.ghosts[rk][p.v] = p.target
				}
			}
		}
		truth.Refresh()
		c.deltaLog = append(c.deltaLog, stepDeltas)
		if ranks > 1 && moves > 0 {
			c.comm.UpdatesSent += moves
			for rk := 0; rk < ranks; rk++ {
				if len(byOwner[rk]) == 0 {
					continue
				}
				for dest := 0; dest < ranks; dest++ {
					if dest == rk || c.down(dest, gs) {
						// A dead peer gets the committed state back through
						// its recovery replay, not the wire.
						continue
					}
					c.send(gs, step, rk, dest, 0, byOwner[rk])
				}
			}
		}

		// 6. Checkpoint phase: every live rank persists its ghost view.
		if (step+1)%c.opt.CheckpointEvery == 0 {
			for rk := 0; rk < ranks; rk++ {
				if c.down(rk, gs) || c.needsRecovery[rk] {
					continue
				}
				copy(c.ckpt[rk], c.ghosts[rk])
				c.ckptStep[rk] = step + 1
				c.comm.CheckpointBytes += uint64(n) * uint64(c.opt.BytesPerUpdate)
			}
		}
		um.SetUint("moves", moves)
		um.End()

		post := sc.Stats()
		res.SweepLog = append(res.SweepLog, trace.Sweep{
			Level: level,
			Stats: post.Accum.Sub(pre.Accum),
			Work:  post.Work.Sub(pre.Work),
		})
		l := truth.Codelength()
		sw.SetUint("active", uint64(active))
		sw.SetUint("moves", moves)
		sw.SetFloat("codelength", l)
		sw.End()

		sweeps++
		totalMoves += moves
		// Termination requires a fully synchronized cluster: no batches in
		// flight or awaiting retransmission, and no rank down or pending
		// recovery. Declaring convergence earlier could freeze a partition
		// that a recovering rank would still improve.
		synced := len(c.pending) == 0 && c.allLive(gs+1)
		if synced && (moves == 0 || prevL-l < c.opt.Infomap.MinImprovement) {
			break
		}
		prevL = l
	}
	return sweeps, totalMoves, nil
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
