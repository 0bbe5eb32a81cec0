package goexit

import "github.com/asamap/asamap/internal/sched"

// dispatchesThroughPool spawns a helper goroutine alongside pool work; the
// pool owns its workers' lifetime (Close joins them), so dispatching through
// it in the same function is accepted structured-concurrency evidence.
func dispatchesThroughPool(p *sched.Pool, bounds []int) error {
	go work()
	_, err := p.Dispatch(bounds, func(worker, block, lo, hi int) error { return nil })
	return err
}
