package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/asamap/asamap/internal/clock"
	"github.com/asamap/asamap/internal/trace"
)

// ErrQueueFull is returned by Queue.Submit when admission control rejects a
// job. RetryAfter is the server's estimate of when capacity frees up, used
// verbatim for the HTTP Retry-After header.
type ErrQueueFull struct {
	RetryAfter time.Duration
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("serve: job queue full, retry after %s", e.RetryAfter)
}

// ErrQueueClosed is returned by Submit after Close.
var ErrQueueClosed = errors.New("serve: job queue closed")

// DefaultRetryAfterPrior is the assumed mean job duration before the first
// completed job seeds the EWMA. Without a prior, every cold-start Retry-After
// estimate collapses to the one-second floor regardless of queue depth — a
// saturated just-started server would invite the whole thundering herd back
// at once. One second is deliberately pessimistic for small graphs: clients
// that arrive during warmup back off harder, not softer.
const DefaultRetryAfterPrior = time.Second

// QueueStats is a point-in-time snapshot of queue activity.
type QueueStats struct {
	Capacity    int    `json:"capacity"`
	Outstanding int    `json:"outstanding"` // admitted jobs not yet finished (queued + running)
	Workers     int    `json:"workers"`
	Submitted   uint64 `json:"submitted"`
	Rejected    uint64 `json:"rejected"`
	Completed   uint64 `json:"completed"`
	Canceled    uint64 `json:"canceled"` // jobs whose context died before or during execution
}

// Queue is a bounded job queue with backpressure. Capacity counts
// *outstanding* jobs — queued plus running — so "capacity K" means the K+1st
// concurrent Submit is rejected with ErrQueueFull regardless of how quickly
// workers drain the channel; that is the deterministic saturation contract
// the API promises. Jobs run on a fixed set of worker goroutines; a job
// whose context is canceled while still queued is skipped without running.
type Queue struct {
	capacity int
	workers  int
	clk      clock.Clock

	jobs chan *queueJob
	sem  chan struct{} // admission tokens, one per outstanding job
	wg   sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	ewma     time.Duration // exponentially weighted mean job duration
	prior    time.Duration // stands in for the EWMA until the first sample
	waitHist *trace.Histogram
	counters struct {
		submitted, rejected, completed, canceled uint64
	}

	// testGate, when set, is called by workers with each job before running
	// it; tests use it to hold jobs in flight so saturation is exact, never
	// timing-luck, and to await a job's cancellation so disconnect tests are
	// propagation-race-free.
	testGate func(*queueJob)
}

type queueJob struct {
	ctx       context.Context
	run       func(ctx context.Context) error
	done      chan struct{}
	err       error
	submitted time.Time // admission instant; queue-wait = pop time - submitted
}

// NewQueue starts workers goroutines draining a queue with the given
// outstanding-job capacity. clk is injectable for deterministic tests.
// prior is the assumed mean job duration used for Retry-After estimates
// before the first completed job seeds the EWMA; non-positive takes
// DefaultRetryAfterPrior.
func NewQueue(capacity, workers int, clk clock.Clock, prior time.Duration) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	if workers < 1 {
		workers = 1
	}
	if clk == nil {
		clk = clock.Real{}
	}
	if prior <= 0 {
		prior = DefaultRetryAfterPrior
	}
	q := &Queue{
		capacity: capacity,
		workers:  workers,
		clk:      clk,
		prior:    prior,
		jobs:     make(chan *queueJob, capacity),
		sem:      make(chan struct{}, capacity),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// SetWaitHist installs a histogram observing each job's queue wait (time
// from admission to a worker popping it, including canceled-while-queued
// jobs). Call before the first Submit; the queue never mutates the histogram
// bounds.
func (q *Queue) SetWaitHist(h *trace.Histogram) {
	q.mu.Lock()
	q.waitHist = h
	q.mu.Unlock()
}

func (q *Queue) wait() *trace.Histogram {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waitHist
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.jobs {
		if gate := q.gate(); gate != nil {
			gate(j)
		}
		if h := q.wait(); h != nil {
			h.Observe(q.clk.Since(j.submitted))
		}
		if err := j.ctx.Err(); err != nil {
			// Canceled while queued (client gone, deadline passed): do not
			// waste a detection run on a result nobody will read.
			j.err = err
			q.account(err)
			close(j.done)
			<-q.sem
			continue
		}
		start := q.clk.Now()
		j.err = j.run(j.ctx)
		q.observe(q.clk.Since(start))
		q.account(j.err)
		close(j.done)
		<-q.sem
	}
}

func (q *Queue) gate() func(*queueJob) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.testGate
}

func (q *Queue) account(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		q.counters.canceled++
	} else {
		q.counters.completed++
	}
}

// observe folds a finished job's duration into the EWMA used for Retry-After
// estimates (alpha 1/4; the first sample seeds the mean).
func (q *Queue) observe(d time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ewma == 0 {
		q.ewma = d
	} else {
		q.ewma += (d - q.ewma) / 4
	}
}

// RetryAfter estimates how long a rejected client should wait before
// retrying: the mean job duration times the number of queue "rounds" ahead
// of it, floored at one second so the header is never zero. Until the first
// completed job seeds the EWMA, the configured prior stands in for the mean
// so cold-start estimates still scale with queue depth.
func (q *Queue) RetryAfter() time.Duration {
	q.mu.Lock()
	ewma := q.ewma
	if ewma == 0 {
		ewma = q.prior
	}
	q.mu.Unlock()
	outstanding := len(q.sem)
	rounds := (outstanding + q.workers - 1) / q.workers
	if rounds < 1 {
		rounds = 1
	}
	est := ewma * time.Duration(rounds)
	if est < time.Second {
		est = time.Second
	}
	return est
}

// Submit admits run for asynchronous execution under ctx, or rejects it
// immediately with *ErrQueueFull when capacity outstanding jobs are already
// admitted. It never blocks on a full queue — backpressure is the caller's
// signal, not an invisible stall. Wait on the returned handle for the result.
func (q *Queue) Submit(ctx context.Context, run func(ctx context.Context) error) (*JobHandle, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrQueueClosed
	}
	q.mu.Unlock()

	select {
	case q.sem <- struct{}{}:
	default:
		q.mu.Lock()
		q.counters.rejected++
		q.mu.Unlock()
		return nil, &ErrQueueFull{RetryAfter: q.RetryAfter()}
	}

	j := &queueJob{ctx: ctx, run: run, done: make(chan struct{}), submitted: q.clk.Now()}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.sem
		return nil, ErrQueueClosed
	}
	q.counters.submitted++
	//asalint:lockorder sem is acquired before mu and q.jobs is buffered to cap(sem), so this send always finds a free slot
	q.jobs <- j
	q.mu.Unlock()
	return &JobHandle{job: j}, nil
}

// JobHandle follows one submitted job.
type JobHandle struct{ job *queueJob }

// Wait blocks until the job finishes (or is skipped due to cancellation) and
// returns its error. If ctx ends first, Wait returns ctx.Err() — the job
// itself still runs to completion or cancellation under its own context.
func (h *JobHandle) Wait(ctx context.Context) error {
	select {
	case <-h.job.done:
		return h.job.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Capacity:    q.capacity,
		Outstanding: len(q.sem),
		Workers:     q.workers,
		Submitted:   q.counters.submitted,
		Rejected:    q.counters.rejected,
		Completed:   q.counters.completed,
		Canceled:    q.counters.canceled,
	}
}

// Close stops accepting jobs, drains the ones already admitted, and waits
// for the workers to exit. Close is idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}
