// Package clock abstracts wall-clock access behind an injectable interface so
// that time-dependent behaviour — backpressure Retry-After estimates, cache
// ages, backoff waits — can be driven deterministically in tests instead of
// with real sleeps. Production code takes a Clock and passes Real; tests pass
// a Fake and advance it explicitly, which keeps suites deterministic under the
// 10–20x slowdown of the race detector.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal wall-clock surface the repository's components need.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// After returns a channel that delivers the (then-)current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real is the system clock.
type Real struct{}

// Now implements Clock via time.Now.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock via time.Since.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// After implements Clock via time.After.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Fake is a manually advanced clock for tests. It never moves on its own;
// Advance releases every timer whose deadline has been reached, in deadline
// order. The zero value is not valid; construct with NewFake.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	due time.Time
	ch  chan time.Time
}

// NewFake returns a Fake clock reading start.
//
//asalint:unreachable test fixture: the fault, obs, serve and serve/cluster tests drive time through a Fake
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns the fake elapsed time since t.
func (f *Fake) Since(t time.Time) time.Duration {
	return f.Now().Sub(t)
}

// After returns a channel that fires when the fake clock has been advanced
// past d. A non-positive d fires immediately.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.timers = append(f.timers, &fakeTimer{due: f.now.Add(d), ch: ch})
	return ch
}

// Advance moves the fake clock forward by d and fires every timer whose
// deadline is reached, in deadline order.
//
//asalint:unreachable test fixture: the fault, obs, serve and serve/cluster tests advance their Fake
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	remaining := f.timers[:0]
	// Fire in deadline order so dependent timers observe a consistent
	// sequence; the slice is small in tests, so a simple selection pass
	// beats keeping a heap.
	for {
		var next *fakeTimer
		for _, t := range f.timers {
			if t.ch == nil || t.due.After(f.now) {
				continue
			}
			if next == nil || t.due.Before(next.due) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.ch <- f.now
		next.ch = nil
	}
	for _, t := range f.timers {
		if t.ch != nil {
			remaining = append(remaining, t)
		}
	}
	f.timers = remaining
}

// Pending returns how many timers are armed and waiting.
//
//asalint:unreachable test fixture: the fault and serve/cluster peer tests wait for a backoff timer to arm
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}
