package infomap

import (
	"fmt"
	"testing"

	"github.com/asamap/asamap/internal/gen"
	"github.com/asamap/asamap/internal/rng"
)

// BenchmarkSchedSweep runs the full optimizer on a power-law (R-MAT) graph
// across worker counts — the end-to-end number behind the worker scaling in
// BENCH_sched.json.
func BenchmarkSchedSweep(b *testing.B) {
	g, err := gen.RMAT(13, 8, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := DefaultOptions()
			opt.Workers = workers
			opt.OuterIters = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
