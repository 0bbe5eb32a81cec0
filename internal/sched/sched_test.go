package sched

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func checkBounds(t *testing.T, bounds []int, n, k int) {
	t.Helper()
	if bounds[0] != 0 || bounds[len(bounds)-1] != n {
		t.Fatalf("bounds endpoints %v, want 0..%d", bounds, n)
	}
	if len(bounds)-1 > k {
		t.Fatalf("%d blocks exceed k=%d", len(bounds)-1, k)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
	}
}

func TestUniformBounds(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {1, 4}, {7, 7}, {100, 1}, {64, 8}} {
		bounds := UniformBounds(tc.n, tc.k)
		want := tc.k
		if want > tc.n {
			want = tc.n
		}
		checkBounds(t, bounds, tc.n, want)
		if len(bounds)-1 != want {
			t.Fatalf("n=%d k=%d: got %d blocks, want %d", tc.n, tc.k, len(bounds)-1, want)
		}
	}
	if b := UniformBounds(0, 4); b[0] != 0 || b[len(b)-1] != 0 {
		t.Fatalf("empty input bounds %v", b)
	}
}

func TestWeightedBoundsBalance(t *testing.T) {
	// A power-law-ish weight profile: one huge hub plus a long uniform tail.
	n, k := 10000, 8
	weight := func(i int) int64 {
		if i == 17 {
			return 5000 // a hub worth half the tail
		}
		return 1
	}
	bounds := WeightedBounds(n, k, weight)
	checkBounds(t, bounds, n, k)
	total := int64(0)
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	target := float64(total) / float64(len(bounds)-1)
	for b := 0; b+1 < len(bounds); b++ {
		w := int64(0)
		for i := bounds[b]; i < bounds[b+1]; i++ {
			w += weight(i)
		}
		// Each block must stay within one max item weight of the target.
		if float64(w) > target+5000 {
			t.Fatalf("block %d weight %d far above target %.0f (bounds %v...)", b, w, target, bounds[:min(len(bounds), 10)])
		}
	}
}

func TestWeightedBoundsUniformWeightsMatchUniform(t *testing.T) {
	n, k := 1000, 4
	wb := WeightedBounds(n, k, func(int) int64 { return 1 })
	checkBounds(t, wb, n, k)
	if len(wb)-1 != k {
		t.Fatalf("uniform weights: got %d blocks, want %d", len(wb)-1, k)
	}
	for b := 1; b < k; b++ {
		if diff := wb[b] - b*n/k; diff < -1 || diff > 1 {
			t.Fatalf("cut %d at %d, want ~%d", b, wb[b], b*n/k)
		}
	}
}

func TestWeightedBoundsDeterministic(t *testing.T) {
	weight := func(i int) int64 { return int64(i%97) + 1 }
	a := WeightedBounds(5000, 16, weight)
	b := WeightedBounds(5000, 16, weight)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bounds differ at %d", i)
		}
	}
}

func TestDispatchRunsEveryBlockOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		n := 1000
		bounds := UniformBounds(n, workers*7)
		hits := make([]int32, n)
		stats, err := p.Dispatch(bounds, func(_, _, lo, hi int) error {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
		if stats.Blocks != len(bounds)-1 {
			t.Fatalf("workers=%d: %d blocks ran, want %d", workers, stats.Blocks, len(bounds)-1)
		}
		if workers == 1 && stats.Steals != 0 {
			t.Fatalf("one worker stole %d blocks", stats.Steals)
		}
	}
}

func TestDispatchStealsFromStragglers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	p := NewPool(4)
	defer p.Close()
	// 16 blocks; the blocks of worker 0's span sleep, so other workers finish
	// their own spans and must steal the tail of span 0.
	bounds := UniformBounds(64, 16)
	var ranBy [4]int32
	_, err := p.Dispatch(bounds, func(worker, block, lo, hi int) error {
		if block < 4 { // worker 0's span
			time.Sleep(20 * time.Millisecond)
		}
		atomic.AddInt32(&ranBy[worker], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 cannot have run all four of its slow blocks alone while three
	// idle workers were allowed to steal.
	if ranBy[0] == 4+12 {
		t.Fatalf("no stealing happened: ranBy=%v", ranBy)
	}
}

func TestDispatchErrorPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	sentinel := errors.New("boom")
	_, err := p.Dispatch(UniformBounds(100, 8), func(_, block, _, _ int) error {
		if block == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestDispatchPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers)
		_, err := p.Dispatch(UniformBounds(10, 5), func(_, block, _, _ int) error {
			if block == 2 {
				panic("injected")
			}
			return nil
		})
		p.Close()
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: got %v, want panic error", workers, err)
		}
	}
}

func TestDispatchStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	stats, err := p.Dispatch(UniformBounds(100, 4), func(_, _, lo, hi int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.BusyTotal(); got < 4*time.Millisecond {
		t.Fatalf("busy total %v, want >= 4ms", got)
	}
	if stats.Imbalance < 1 {
		t.Fatalf("imbalance %f < 1", stats.Imbalance)
	}
}

func TestPoolReuseAcrossDispatches(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	before := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		var count int64
		if _, err := p.Dispatch(UniformBounds(200, 16), func(_, _, lo, hi int) error {
			atomic.AddInt64(&count, int64(hi-lo))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if count != 200 {
			t.Fatalf("round %d: covered %d items", round, count)
		}
	}
	// Persistent pool: repeated dispatches must not accumulate goroutines.
	if after := runtime.NumGoroutine(); after > before+4 {
		t.Fatalf("goroutines grew from %d to %d across dispatches", before, after)
	}
}

func TestCloseIdempotentAndReleases(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	if _, err := p.Dispatch(UniformBounds(8, 8), func(_, _, _, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked after Close: %d -> %d", before, after)
	}
}

func TestDispatchEmptyAndTiny(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	// Zero items: one empty block, fn sees lo == hi.
	ran := 0
	var mu sync.Mutex
	if _, err := p.Dispatch(UniformBounds(0, 4), func(_, _, lo, hi int) error {
		mu.Lock()
		ran += hi - lo
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("empty dispatch ran %d items", ran)
	}
	// Fewer items than workers.
	var count int64
	if _, err := p.Dispatch(UniformBounds(2, 4), func(_, _, lo, hi int) error {
		atomic.AddInt64(&count, int64(hi-lo))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("covered %d of 2 items", count)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
