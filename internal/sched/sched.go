// Package sched is the shared parallel-execution substrate for the
// repository's sweep-style kernels (FindBestCommunity, PageRank power
// iteration, Convert2SuperNode contraction).
//
// It addresses the classic straggler problem of static loop scheduling on
// power-law graphs: splitting a shuffled vertex order into equal-count
// contiguous chunks leaves one worker holding the hub vertices while the
// rest idle at the sweep barrier. The substrate provides
//
//   - a persistent worker pool: goroutines are created once per Pool (one
//     algorithm run), not respawned for every sweep;
//   - degree-aware block partitioning: WeightedBounds prefix-sums a per-item
//     work estimate (typically arc count) so each block carries equal *work*,
//     not equal item count;
//   - chunked work-stealing: each worker drains its own block span through an
//     atomic grab counter, then steals remaining blocks from other workers'
//     spans — OpenMP guided/dynamic scheduling in spirit, as used by parallel
//     community-detection codes (Staudt & Meyerhenke; HyPC-Map).
//
// Determinism: the substrate never reorders *outputs*. Blocks are fixed by
// the partition (a pure function of the weights), each block is executed
// exactly once, and callers keep per-block result buffers, so the merged
// result is independent of which worker ran which block and of the steal
// schedule. Floating-point reductions must therefore be organized per block
// (or per fixed index range), never per worker.
//
// Every dispatch is observable: per-worker busy time, executed block counts,
// steal counts, and the busy-time imbalance ratio (max/mean) are returned to
// the caller for trace and benchmark output.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/obs"
)

// BlockFunc processes one block: items [lo, hi) of the caller's index space,
// on behalf of the given worker ID. Implementations may use worker-local
// scratch indexed by worker and must write results into block-indexed
// buffers to stay schedule-independent.
type BlockFunc func(worker, block, lo, hi int) error

// WorkerStat describes one worker's share of a Dispatch.
type WorkerStat struct {
	Busy   time.Duration // wall time spent inside BlockFunc
	Blocks int           // blocks executed (own + stolen)
	Steals int           // blocks taken from another worker's span
}

// Stats describes one Dispatch.
type Stats struct {
	PerWorker []WorkerStat
	Blocks    int    // total blocks executed
	Steals    uint64 // total stolen blocks
	// Imbalance is max/mean of per-worker busy time over all pool workers
	// (1.0 = perfectly balanced; 0 when nothing ran). The per-sweep
	// imbalance ratios of the scheduler benchmarks aggregate this value.
	Imbalance float64
}

// BusyTotal returns the summed busy time over all workers.
func (s Stats) BusyTotal() time.Duration {
	var t time.Duration
	for _, w := range s.PerWorker {
		t += w.Busy
	}
	return t
}

// Pool is a persistent team of worker goroutines. Create once per algorithm
// run with NewPool, issue any number of Dispatch calls (one at a time), and
// release the goroutines with Close. A one-worker Pool spawns no goroutines;
// Dispatch then runs inline on the caller.
type Pool struct {
	n     int
	clk   clock.Clock
	chans []chan *dispatch
	done  sync.WaitGroup
	once  sync.Once
}

// NewPool returns a pool of n persistent workers (n < 1 is treated as 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n, clk: clock.Real{}}
	if n == 1 {
		return p
	}
	p.chans = make([]chan *dispatch, n)
	for i := range p.chans {
		p.chans[i] = make(chan *dispatch, 1)
	}
	p.done.Add(n)
	for i := 0; i < n; i++ {
		go p.workerLoop(i)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.n }

// Close terminates the worker goroutines. The pool must not be used after
// Close; Close is idempotent.
func (p *Pool) Close() {
	if p.chans == nil {
		return
	}
	p.once.Do(func() {
		for _, c := range p.chans {
			close(c)
		}
		p.done.Wait()
	})
}

func (p *Pool) workerLoop(id int) {
	defer p.done.Done()
	for d := range p.chans[id] {
		d.runWorker(id)
		d.wg.Done()
	}
}

// dispatch is the shared state of one Dispatch call.
type dispatch struct {
	bounds []int
	fn     BlockFunc
	clk    clock.Clock
	parent *obs.Span // span the per-worker spans nest under; nil = no tracing

	spanLo, spanHi []int    // per worker: initial block span [lo, hi)
	cursors        []cursor // per worker: atomic next-block grab counter
	stats          []WorkerStat

	wg     sync.WaitGroup
	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// cursor is a cache-line padded atomic block counter, one per worker, so
// that the grab counters of different workers never share a line.
type cursor struct {
	next atomic.Int64
	_    [56]byte
}

func (d *dispatch) setErr(err error) {
	d.failed.Store(true)
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

// runWorker drains worker id's own span, then steals the remaining
// blocks of the other spans. A panic inside the BlockFunc is converted into
// a dispatch error rather than crashing the process. When the dispatch has a
// trace parent, the worker's share is emitted as a keyed volatile span (its
// ID derives from the worker ID, and it never enters the canonical tree, so
// tracing cannot perturb the determinism contract).
//
//asalint:hotroot per-worker dispatch loop: own span then stealing
func (d *dispatch) runWorker(id int) {
	ws := d.parent.ChildKeyed("worker", uint64(id))
	ws.SetTrack(id + 1)
	st := &d.stats[id]
	defer func() {
		if r := recover(); r != nil {
			d.setErr(fmt.Errorf("sched: worker %d panicked: %v", id, r))
		}
		ws.SetVolatileUint("blocks", uint64(st.Blocks))
		ws.SetVolatileUint("steals", uint64(st.Steals))
		ws.SetVolatileAttr("busy", st.Busy.String())
		ws.End()
	}()
	for {
		b := int(d.cursors[id].next.Add(1)) - 1
		if b >= d.spanHi[id] {
			break
		}
		d.runBlock(id, b, st, false)
	}
	for off := 1; off < len(d.spanLo); off++ {
		v := (id + off) % len(d.spanLo)
		for {
			b := int(d.cursors[v].next.Add(1)) - 1
			if b >= d.spanHi[v] {
				break
			}
			d.runBlock(id, b, st, true)
		}
	}
}

//asalint:hotroot per-block execution under the work-stealing scheduler
func (d *dispatch) runBlock(id, b int, st *WorkerStat, stolen bool) {
	if d.failed.Load() {
		return
	}
	t0 := d.clk.Now()
	err := d.fn(id, b, d.bounds[b], d.bounds[b+1])
	st.Busy += d.clk.Since(t0)
	st.Blocks++
	if stolen {
		st.Steals++
	}
	if err != nil {
		d.setErr(err)
	}
}

// Dispatch runs fn over the blocks described by bounds (len(bounds)-1 blocks;
// block b covers [bounds[b], bounds[b+1])) and waits for completion. Blocks
// are split evenly across workers as initial spans; idle workers then take
// over the unstarted tail of loaded spans. Each block runs exactly once. The
// first error (or recovered panic) is returned after all workers have
// stopped; remaining unstarted blocks may be skipped once an error is
// recorded. Only one Dispatch may be in flight per pool.
func (p *Pool) Dispatch(bounds []int, fn BlockFunc) (Stats, error) {
	return p.DispatchTraced(bounds, fn, nil)
}

// DispatchTraced is Dispatch with span tracing: each participating worker
// emits one volatile keyed span under parent carrying its busy time, block
// count, and steal count on its own display track. A nil parent traces
// nothing (Dispatch delegates here with nil).
func (p *Pool) DispatchTraced(bounds []int, fn BlockFunc, parent *obs.Span) (Stats, error) {
	nb := len(bounds) - 1
	if nb < 0 {
		return Stats{}, fmt.Errorf("sched: empty bounds")
	}
	d := &dispatch{
		bounds:  bounds,
		fn:      fn,
		clk:     p.clk,
		parent:  parent,
		spanLo:  make([]int, p.n),
		spanHi:  make([]int, p.n),
		cursors: make([]cursor, p.n),
		stats:   make([]WorkerStat, p.n),
	}
	for w := 0; w < p.n; w++ {
		d.spanLo[w] = w * nb / p.n
		d.spanHi[w] = (w + 1) * nb / p.n
		d.cursors[w].next.Store(int64(d.spanLo[w]))
	}
	if p.chans == nil {
		// One worker: run inline on the caller, no goroutine round trip.
		d.runWorker(0)
	} else {
		d.wg.Add(p.n)
		for _, c := range p.chans {
			c <- d
		}
		d.wg.Wait()
	}
	stats := Stats{PerWorker: d.stats}
	var max, sum time.Duration
	for _, w := range d.stats {
		stats.Blocks += w.Blocks
		stats.Steals += uint64(w.Steals)
		sum += w.Busy
		if w.Busy > max {
			max = w.Busy
		}
	}
	if sum > 0 {
		mean := float64(sum) / float64(p.n)
		stats.Imbalance = float64(max) / mean
	}
	return stats, d.err
}

// UniformBounds splits [0, n) into k contiguous blocks of near-equal item
// count. Sweeps use it only where the split cannot matter (one worker); on
// skewed work it is the straggling static-chunk partition the package exists
// to avoid.
func UniformBounds(n, k int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	bounds := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = i * n / k
	}
	return bounds
}

// WeightedBounds splits [0, n) into at most k contiguous blocks of
// near-equal total weight, using a single prefix-sum pass over the per-item
// weight function (weights below 1 count as 1). On power-law workloads this
// is the degree-aware partition: weight(i) = arc count of item i, so a block
// of hub vertices holds few items and a block of leaves holds many, but both
// carry the same sweep work. The result is a pure function of (n, k,
// weights) and therefore identical across runs and worker schedules.
func WeightedBounds(n, k int, weight func(i int) int64) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	total := int64(0)
	for i := 0; i < n; i++ {
		w := weight(i)
		if w < 1 {
			w = 1
		}
		total += w
	}
	bounds := make([]int, 1, k+1)
	acc := int64(0)
	for i := 0; i < n-1; i++ {
		w := weight(i)
		if w < 1 {
			w = 1
		}
		acc += w
		b := len(bounds) // blocks closed so far + 1 = index of the next cut
		// Close block b once its cumulative work reaches b/k of the total,
		// as long as every remaining block can still receive an item.
		if b < k && acc*int64(k) >= total*int64(b) && n-(i+1) >= k-b {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, n)
}
