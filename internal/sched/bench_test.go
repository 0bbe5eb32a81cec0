package sched

import (
	"fmt"
	"testing"
)

// BenchmarkSchedDispatch measures the fixed cost of one Dispatch round trip
// — the overhead every sweep pays on top of its useful block work.
func BenchmarkSchedDispatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			bounds := UniformBounds(1<<14, workers*8)
			sink := make([]int64, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Dispatch(bounds, func(w, _, lo, hi int) error {
					s := int64(0)
					for j := lo; j < hi; j++ {
						s += int64(j)
					}
					sink[w] += s
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedWeightedBounds measures the prefix-sum partitioner on a
// power-law weight profile.
func BenchmarkSchedWeightedBounds(b *testing.B) {
	n := 1 << 17
	weight := func(i int) int64 { return int64(i%1024) + 1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bounds := WeightedBounds(n, 64, weight); len(bounds) < 2 {
			b.Fatal("degenerate bounds")
		}
	}
}
